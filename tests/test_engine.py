"""Unit tests for the circuit CDCL engine (C-SAT core)."""

import random
from collections import Counter
from heapq import heappop, heappush

import pytest

from repro import Circuit, Limits, SAT, SolverError, UNKNOWN, UNSAT
from repro.csat.engine import CSatEngine, _ACTION_TABLE, _build_action_table
from repro.csat.frame import UNASSIGNED
from repro.csat.options import SolverOptions
from conftest import build_full_adder, build_random_circuit


def make_engine(circuit, **opts):
    return CSatEngine(circuit, SolverOptions(**opts))


class TestActionTable:
    def test_table_covers_all_states(self):
        assert len(_ACTION_TABLE) == 27

    def test_table_is_deterministic(self):
        assert _build_action_table() == _ACTION_TABLE

    def test_fully_assigned_consistent_states_are_silent(self):
        # (la, lb, lg) consistent with AND semantics -> no action.
        from repro.csat.engine import _A_NONE
        for la in (0, 1):
            for lb in (0, 1):
                lg = la & lb
                assert _ACTION_TABLE[la * 9 + lb * 3 + lg] == _A_NONE

    def test_inconsistent_states_conflict(self):
        from repro.csat.engine import (_A_CONFL_GA, _A_CONFL_GAB, _A_CONFL_GB)
        assert _ACTION_TABLE[0 * 9 + 1 * 3 + 1] == _A_CONFL_GA
        assert _ACTION_TABLE[1 * 9 + 0 * 3 + 1] == _A_CONFL_GB
        assert _ACTION_TABLE[1 * 9 + 1 * 3 + 0] == _A_CONFL_GAB


class TestBasicSolving:
    def test_and_objective(self):
        c = Circuit()
        a, b = c.add_input(), c.add_input()
        g = c.add_and(a, b)
        c.add_output(g)
        r = make_engine(c).solve(assumptions=[g])
        assert r.status == SAT
        assert r.model[a >> 1] and r.model[b >> 1]

    def test_negated_objective(self):
        c = Circuit()
        a, b = c.add_input(), c.add_input()
        g = c.add_and(a, b)
        c.add_output(g)
        r = make_engine(c).solve(assumptions=[g ^ 1])
        assert r.status == SAT

    def test_contradictory_assumptions_unsat(self):
        c = Circuit()
        a = c.add_input()
        r = make_engine(c).solve(assumptions=[a, a ^ 1])
        assert r.status == UNSAT

    def test_structurally_unsat(self):
        c = Circuit(strash=False)
        a, b = c.add_input(), c.add_input()
        g1 = c.add_and(a, b)
        g2 = c.add_raw_and(a ^ 1, b)
        both = c.add_and(g1, g2)  # a & ~a & b: unsatisfiable
        r = make_engine(c).solve(assumptions=[both])
        assert r.status == UNSAT

    def test_xor_objective(self):
        c = Circuit()
        a, b = c.add_input(), c.add_input()
        x = c.xor_(a, b)
        r = make_engine(c).solve(assumptions=[x])
        assert r.status == SAT
        assert r.model[a >> 1] != r.model[b >> 1]

    def test_constant_objective(self):
        c = Circuit()
        c.add_input()
        assert make_engine(c).solve(assumptions=[1]).status == SAT
        assert make_engine(c).solve(assumptions=[0]).status == UNSAT

    def test_repeated_calls_consistent(self):
        c = build_random_circuit(2, num_inputs=5, num_gates=30)
        engine = make_engine(c)
        first = engine.solve(assumptions=list(c.outputs)).status
        for _ in range(3):
            assert engine.solve(assumptions=list(c.outputs)).status == first

    def test_degenerate_buffer_gate_handled(self):
        # AND(x, x) can only come from raw construction; the engine models
        # it as a buffer.  Asserting the gate low must force x low.
        c = Circuit(strash=False)
        a = c.add_input()
        c._kind.append(2)      # forge AND(a, a) behind the builder's back
        c._fanin0.append(a)
        c._fanin1.append(a)
        g = 2 * (c.num_nodes - 1)
        c.add_output(g)
        engine = make_engine(c)
        r = engine.solve(assumptions=[g ^ 1])
        assert r.status == SAT
        assert r.model[a >> 1] is False

    def test_degenerate_constant_gate_handled(self):
        # AND(x, ~x) is constant FALSE; asserting it high is UNSAT.
        c = Circuit(strash=False)
        a = c.add_input()
        c._kind.append(2)
        c._fanin0.append(a)
        c._fanin1.append(a ^ 1)
        g = 2 * (c.num_nodes - 1)
        c.add_output(g)
        engine = make_engine(c)
        assert engine.solve(assumptions=[g]).status == UNSAT
        engine2 = make_engine(c)
        assert engine2.solve(assumptions=[g ^ 1]).status == SAT


class TestModes:
    @pytest.mark.parametrize("use_jnode", [False, True])
    def test_modes_agree(self, use_jnode):
        for seed in range(20):
            c = build_random_circuit(seed, num_inputs=4, num_gates=25)
            r = make_engine(c, use_jnode=use_jnode).solve(
                assumptions=list(c.outputs))
            r2 = make_engine(c, use_jnode=not use_jnode).solve(
                assumptions=list(c.outputs))
            assert r.status == r2.status

    def test_jnode_mode_partial_model_is_justified(self):
        c = build_random_circuit(41, num_inputs=6, num_gates=40)
        r = make_engine(c, use_jnode=True).solve(assumptions=list(c.outputs))
        if r.status != SAT:
            return
        # Completing unassigned PIs arbitrarily must satisfy the objectives
        # and agree with every assigned node.
        inputs = {pi: r.model.get(pi, False) for pi in c.inputs}
        vals = c.evaluate(inputs)
        for node, val in r.model.items():
            assert vals[node] == val
        for o in c.outputs:
            assert vals[o >> 1] ^ bool(o & 1)

    def test_jnode_decisions_counted(self):
        c = build_random_circuit(10, num_inputs=6, num_gates=60)
        engine = make_engine(c, use_jnode=True)
        r = engine.solve(assumptions=list(c.outputs))
        if r.stats.decisions:
            assert r.stats.jnode_decisions <= r.stats.decisions


class TestLearnedClauses:
    def test_add_learned_clause_unit(self):
        c = Circuit()
        a = c.add_input()
        engine = make_engine(c)
        engine.add_learned_clause([a])
        r = engine.solve(assumptions=[a ^ 1])
        assert r.status == UNSAT

    def test_add_learned_clause_binary(self):
        c = Circuit()
        a, b = c.add_input(), c.add_input()
        engine = make_engine(c)
        engine.add_learned_clause([a ^ 1, b])  # a -> b
        r = engine.solve(assumptions=[a, b ^ 1])
        assert r.status == UNSAT
        assert engine.solve(assumptions=[a, b]).status == SAT

    def test_contradicting_units_poison_engine(self):
        c = Circuit()
        a = c.add_input()
        engine = make_engine(c)
        engine.add_learned_clause([a])
        engine.add_learned_clause([a ^ 1])
        assert not engine.ok
        assert engine.solve().status == UNSAT

    def test_learned_clauses_watched_on_first_two_literals(self):
        # The watched pair of a learned clause is clause[0]/clause[1]:
        # each live clause sits in exactly those two watch lists, once.
        from repro.gen.iscas import equiv_miter
        m = equiv_miter("c432")
        engine = make_engine(m, use_jnode=True, learnt_limit_base=20)
        r = engine.solve(assumptions=list(m.outputs))
        assert r.status == UNSAT
        assert r.stats.deleted_clauses > 0  # reduce_db ran
        live = [ci for ci in engine.learnt_idx
                if engine.clauses[ci] is not None]
        assert len(live) > 10
        for ci in live:
            clause = engine.clauses[ci]
            assert len(clause) >= 2
            watched_by = [lit for lit, ws in enumerate(engine.watches)
                          for _ in range(ws.count(ci))]
            assert sorted(watched_by) == sorted(clause[:2])

    def test_max_learned_aborts(self):
        # An engine on a hard-ish circuit stops after N learned gates.
        c = build_random_circuit(19, num_inputs=8, num_gates=120)
        engine = make_engine(c)
        r = engine.solve(assumptions=list(c.outputs), max_learned=1)
        assert r.status in (SAT, UNSAT, UNKNOWN)
        if r.status == UNKNOWN:
            assert r.stats.learned_clauses >= 1


def _plain_pick(engine, plain):
    """The pick over a plain heap with duplicate entries: pop until an
    entry passes the mode's validity test."""
    values = engine.frame.values
    while plain:
        neg_act, lit = heappop(plain)
        node = lit >> 1
        if values[node] >= 0:
            continue
        if engine.options.use_jnode:
            if engine.in_learned[node] or engine._is_jinput(node):
                return lit
        elif -neg_act == engine.activity[lit]:
            return lit
    if engine.options.use_jnode:
        return None
    return next((2 * node for node in range(1, engine.num_nodes)
                 if values[node] < 0), None)


def _stored_copies(engine):
    """Copies per heap entry, read from both count stores: ``cur`` for
    entries at the literal's current activity, the dict for older ones.
    Every heap entry must have a positive count in exactly one store, and
    neither store may count an entry the heap lacks."""
    heap, counts = engine._candidate_heap()
    copies = Counter()
    for entry in heap:
        neg_act, lit = entry
        in_cur = -neg_act == engine.activity[lit] and engine.cur[lit] > 0
        in_dict = counts.get(entry, 0) > 0
        assert in_cur != in_dict, entry
        copies[entry] = engine.cur[lit] if in_cur else counts[entry]
    live = {(-engine.activity[lit], lit)
            for lit, count in enumerate(engine.cur) if count}
    assert sorted(heap) == sorted(live | set(counts))
    return copies


class TestCandidateHeaps:
    @pytest.mark.parametrize("use_jnode", [True, False])
    def test_counted_pick_matches_plain_heap(self, use_jnode):
        # Random pushes and bumps (so many duplicates and stale keys),
        # assignment changes and picks: the counted heap holds the same
        # multiset as a plain heap with duplicates, and returns the same
        # literal on every pick.
        rng = random.Random(20261017 + use_jnode)
        c = build_random_circuit(5, num_inputs=8, num_gates=60)
        engine = make_engine(c, use_jnode=use_jnode)
        plain = list(engine._candidate_heap()[0])
        pick = (engine._pick_jnode_decision if use_jnode
                else engine._pick_global_decision)
        values = engine.frame.values
        n = engine.num_nodes
        picks = 0
        for _ in range(4000):
            r = rng.random()
            if r < 0.55:
                lit = rng.randrange(2, 2 * n)
                if rng.random() < 0.3:
                    # The only way the engine changes an activity between
                    # rescales; it pushes the raised entry itself.
                    engine._bump(lit)
                else:
                    engine._push_candidate(lit)
                heappush(plain, (-engine.activity[lit], lit))
            elif r < 0.8:
                node = rng.randrange(1, n)
                values[node] = rng.choice((UNASSIGNED, 0, 1))
                engine.in_learned[node] = rng.random() < 0.2
            else:
                expected = _plain_pick(engine, plain)
                assert pick() == expected
                picks += expected is not None
            assert Counter(plain) == _stored_copies(engine)
        assert picks > 100

    def test_rescale_scales_jheap_keys(self):
        # With a fast decay the first activity rescale comes at conflict
        # 333.  Every J-heap key must be scaled with the activities, or
        # stale keys above 1e50 would outrank every fresh hint.
        from repro.gen.iscas import equiv_miter
        m = equiv_miter("c1355")
        engine = make_engine(m, use_jnode=True, var_decay=0.5)
        rescale = engine._rescale_activity
        tops = []

        def checked_rescale():
            rescale()
            top = max(engine.activity)
            assert all(-neg_act <= top for neg_act, _ in engine.jheap)
            heap = engine.jheap
            _stored_copies(engine)
            assert all(heap[(k - 1) // 2] <= heap[k]
                       for k in range(1, len(heap)))
            tops.append(top)

        engine._rescale_activity = checked_rescale
        engine.solve(assumptions=list(m.outputs),
                     limits=Limits(max_conflicts=1000))
        assert len(tops) >= 2

    def test_bump_pushes_after_rescale(self):
        c = build_random_circuit(3)
        engine = make_engine(c, use_jnode=True)
        lit = 5
        engine.activity[lit] = 2e100
        engine._bump(lit)
        assert engine.activity[lit] < 1e100
        assert engine.jheap == [(-engine.activity[lit], lit)]
        assert engine.cur[lit] == 1


class TestLimits:
    def test_conflict_limit(self):
        from repro.gen.iscas import equiv_miter
        m = equiv_miter("c3540")
        engine = make_engine(m)
        r = engine.solve(assumptions=list(m.outputs),
                         limits=Limits(max_conflicts=5))
        assert r.status == UNKNOWN

    def test_time_limit(self):
        from repro.gen.iscas import equiv_miter
        m = equiv_miter("c6288")
        engine = make_engine(m)
        r = engine.solve(assumptions=list(m.outputs),
                         limits=Limits(max_seconds=0.2))
        assert r.status == UNKNOWN

    def test_time_limit_reports_partial_stats(self):
        # An aborted run still carries the work done so far — the bench
        # harness and the paper's ``*`` rows depend on these counters.
        from repro.gen.iscas import equiv_miter
        m = equiv_miter("c6288")
        engine = make_engine(m)
        r = engine.solve(assumptions=list(m.outputs),
                         limits=Limits(max_seconds=0.3))
        assert r.status == UNKNOWN
        assert r.model is None
        assert r.stats.decisions > 0
        assert r.stats.propagations > 0
        assert r.time_seconds >= 0.3

    def test_decision_limit(self):
        from repro.gen.iscas import equiv_miter
        m = equiv_miter("c6288")
        engine = make_engine(m)
        r = engine.solve(assumptions=list(m.outputs),
                         limits=Limits(max_decisions=40))
        assert r.status == UNKNOWN
        # The budget is checked every loop iteration, so the engine stops
        # within one decision of the cap and the partial stats survive.
        assert 0 < r.stats.decisions <= 41
        assert r.model is None

    def test_stats_delta_per_call(self):
        c = build_random_circuit(6, num_inputs=5, num_gates=30)
        engine = make_engine(c)
        r1 = engine.solve(assumptions=list(c.outputs))
        r2 = engine.solve(assumptions=list(c.outputs))
        # Cumulative stats keep growing; per-call deltas stay sane.
        assert engine.stats.decisions == (r1.stats.decisions
                                          + r2.stats.decisions)


class TestRestartRule:
    def test_restart_threshold_triggers(self):
        # A tiny window and an impossible threshold force restarts on any
        # instance with conflicts.
        from repro.gen.iscas import equiv_miter
        m = equiv_miter("c1355")
        engine = make_engine(m, restart_window=8, restart_threshold=1e9)
        r = engine.solve(assumptions=list(m.outputs),
                         limits=Limits(max_conflicts=200))
        assert engine.stats.restarts > 0

    def test_restarts_disabled(self):
        from repro.gen.iscas import equiv_miter
        m = equiv_miter("c1355")
        engine = make_engine(m, restart_enabled=False, restart_window=8,
                             restart_threshold=1e9)
        engine.solve(assumptions=list(m.outputs),
                     limits=Limits(max_conflicts=200))
        assert engine.stats.restarts == 0
