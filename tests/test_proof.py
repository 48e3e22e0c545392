"""Unit tests for DRUP proof logging and checking."""

import random

import pytest

from repro import (CnfFormula, CnfSolver, CircuitSolver, SAT, UNSAT, preset,
                   tseitin)
from repro.csat.engine import CSatEngine
from repro.csat.options import SolverOptions
from repro.proof import ADD, DELETE, ProofCheckResult, ProofLog, check_drup
from conftest import build_full_adder, build_random_circuit


# ----------------------------------------------------------------------
# Reference checker: the original quadratic algorithm, kept here as the
# oracle the watched-literal checker in repro.proof is compared against.
# ----------------------------------------------------------------------

def _reference_propagate(clauses, assignment):
    """Naive unit propagation to fixpoint; True iff a conflict arises.

    Rescans every clause until nothing changes; ``assignment`` maps
    var -> bool and is extended in place.
    """
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if clause is None:
                continue
            unassigned = None
            n_unassigned = 0
            satisfied = False
            for lit in clause:
                var = abs(lit)
                if var in assignment:
                    if assignment[var] == (lit > 0):
                        satisfied = True
                        break
                else:
                    unassigned = lit
                    n_unassigned += 1
            if satisfied:
                continue
            if n_unassigned == 0:
                return True
            if n_unassigned == 1:
                assignment[abs(unassigned)] = unassigned > 0
                changed = True
    return False


def _reference_is_rup(clauses, clause):
    assignment = {}
    for lit in clause:
        var = abs(lit)
        value = lit < 0  # assume the negation of the clause
        if var in assignment and assignment[var] != value:
            return True  # tautology
        assignment[var] = value
    return _reference_propagate(clauses, assignment)


def reference_check_drup(formula, proof, require_empty=True):
    """check_drup's contract by the simplest means: clauses are sets
    (repeated literals merged), every lemma is checked in order."""
    db = [list(dict.fromkeys(c)) for c in formula.clauses]
    live = {}
    for index, (kind, lits) in enumerate(proof.steps):
        clause = list(lits)
        key = tuple(sorted(set(clause)))
        if kind == ADD:
            if not _reference_is_rup(db, clause):
                return ProofCheckResult(
                    False, index,
                    "step {}: clause {} is not RUP".format(index, clause))
            if not clause:
                return ProofCheckResult(True, index + 1)
            db.append(list(dict.fromkeys(clause)))
            live.setdefault(key, []).append(len(db) - 1)
        else:
            slots = live.get(key)
            if slots:
                db[slots.pop()] = None
    if require_empty:
        return ProofCheckResult(False, len(proof.steps),
                                "proof never derives the empty clause")
    return ProofCheckResult(True, len(proof.steps))


def pigeonhole(holes):
    def v(i, j):
        return i * holes + j + 1
    clauses = [[v(i, j) for j in range(holes)] for i in range(holes + 1)]
    for j in range(holes):
        for i1 in range(holes + 1):
            for i2 in range(i1 + 1, holes + 1):
                clauses.append([-v(i1, j), -v(i2, j)])
    return CnfFormula(clauses=clauses)


class TestProofLog:
    def test_add_and_delete_steps(self):
        log = ProofLog()
        log.add([1, -2])
        log.delete([1, -2])
        log.add([])
        assert len(log) == 3
        assert log.complete

    def test_to_text_format(self):
        log = ProofLog()
        log.add([1, -2])
        log.delete([3])
        text = log.to_text()
        assert "1 -2 0" in text
        assert "d 3 0" in text

    def test_from_text_round_trip(self):
        log = ProofLog()
        log.add([1, -2])
        log.delete([1, -2])
        log.add([3, 3])
        log.delete([])
        log.add([])
        back = ProofLog.from_text(log.to_text())
        assert back == log
        assert back.complete

    def test_from_text_skips_comments_and_blank_lines(self):
        log = ProofLog.from_text("c produced by hand\n\n  1 2 0\nc\nd 1 2 0\n")
        assert log.steps == [(ADD, (1, 2)), (DELETE, (1, 2))]
        assert not log.complete

    @pytest.mark.parametrize("text", [
        "1 x 0\n",       # not an integer
        "1 2\n",         # no terminating 0
        "1 0 2 0\n",     # 0 inside the clause
        "d\n",           # deletion of nothing, unterminated
    ])
    def test_from_text_rejects_malformed_lines(self, text):
        with pytest.raises(ValueError, match="line 2"):
            ProofLog.from_text("c header\n" + text)


class TestChecker:
    def test_valid_rup_step_accepted(self):
        f = CnfFormula(clauses=[[1, 2], [-1, 2]])
        log = ProofLog()
        log.add([2])   # RUP: assume -2, both clauses become units on 1/-1
        log.add([])    # with [2] present... the formula is SAT though!
        result = check_drup(f, log)
        # The empty clause is NOT derivable: the check must fail.
        assert not result.ok

    def test_bogus_step_rejected(self):
        f = CnfFormula(clauses=[[1, 2]])
        log = ProofLog()
        log.add([-1])  # not RUP
        assert not check_drup(f, log, require_empty=False).ok

    def test_tautology_step_accepted(self):
        f = CnfFormula(clauses=[[1]])
        log = ProofLog()
        log.add([2, -2])
        assert check_drup(f, log, require_empty=False).ok

    def test_requires_empty_by_default(self):
        f = CnfFormula(clauses=[[1], [-1, 2]])
        log = ProofLog()
        log.add([2])
        assert not check_drup(f, log).ok
        assert check_drup(f, log, require_empty=False).ok

    def test_repeated_literal_clause_becomes_unit(self):
        # [3, -1, -1] is the binary clause (3 | ~1): under 1 it forces 3.
        f = CnfFormula(clauses=[[3, -1, -1], [1], [-3, 2], [-3, -2]])
        log = ProofLog()
        log.add([])
        result = check_drup(f, log)
        assert result.ok, result.reason
        assert result.steps_checked == 1

    def test_deleted_lemma_is_no_longer_used(self):
        f = CnfFormula(clauses=[[1, 2, 3], [1, 2, -3],
                                [1, -2, 4], [1, -2, -4]])
        log = ProofLog()
        log.add([1, 2])
        log.add([1])   # RUP only with [1, 2] present
        assert check_drup(f, log, require_empty=False).ok
        log.steps.insert(1, (DELETE, (2, 1)))
        result = check_drup(f, log, require_empty=False)
        assert not result.ok
        assert result.steps_checked == 2
        assert result.reason == "step 2: clause [1] is not RUP"

    def test_deleting_original_clause_is_tolerated(self):
        f = CnfFormula(clauses=[[1], [-1]])
        log = ProofLog()
        log.delete([1])
        log.add([])
        assert check_drup(f, log) == ProofCheckResult(True, 2)


class TestCnfSolverProofs:
    def test_pigeonhole_proof_checks(self):
        f = pigeonhole(3)
        log = ProofLog()
        solver = CnfSolver(f, proof=log)
        assert solver.solve().status == UNSAT
        assert log.complete
        result = check_drup(f, log)
        assert result.ok, result.reason

    def test_trivial_unsat_proof(self):
        f = CnfFormula(clauses=[[1], [-1]])
        log = ProofLog()
        assert CnfSolver(f, proof=log).solve().status == UNSAT
        assert check_drup(f, log).ok

    @pytest.mark.parametrize("seed", range(8))
    def test_random_unsat_proofs_check(self, seed):
        rng = random.Random(seed)
        while True:
            nv = rng.randint(4, 8)
            clauses = []
            for _ in range(6 * nv):
                vs = rng.sample(range(1, nv + 1), 3)
                clauses.append([v if rng.random() < 0.5 else -v for v in vs])
            f = CnfFormula(num_vars=nv, clauses=clauses)
            if CnfSolver(f).solve().status == UNSAT:
                break
        log = ProofLog()
        assert CnfSolver(f, proof=log).solve().status == UNSAT
        result = check_drup(f, log)
        assert result.ok, result.reason

    def test_sat_produces_incomplete_proof(self):
        f = CnfFormula(clauses=[[1, 2]])
        log = ProofLog()
        assert CnfSolver(f, proof=log).solve().status == SAT
        assert not log.complete


class TestCircuitSolverProofs:
    """The crown jewel: circuit-engine UNSAT proofs checked against the
    independent Tseitin encoding."""

    def _check_engine_proof(self, circuit, objectives, options=None):
        log = ProofLog()
        engine = CSatEngine(circuit, options or SolverOptions(), proof=log)
        result = engine.solve(assumptions=objectives, proof_refutation=True)
        if result.status != UNSAT:
            return result.status, None
        formula, _ = tseitin(circuit, objectives=objectives)
        verdict = check_drup(formula, log)
        return UNSAT, verdict

    def test_simple_contradiction(self):
        from repro import Circuit
        c = Circuit(strash=False)
        a, b = c.add_input(), c.add_input()
        g1 = c.add_and(a, b)
        g2 = c.add_raw_and(a ^ 1, b)
        both = c.add_and(g1, g2)
        c.add_output(both)
        status, verdict = self._check_engine_proof(c, [both])
        assert status == UNSAT
        assert verdict.ok, verdict.reason

    def test_miter_proof_checks(self):
        from repro.circuit.miter import miter_identical
        m = miter_identical(build_full_adder())
        status, verdict = self._check_engine_proof(m, list(m.outputs))
        assert status == UNSAT
        assert verdict.ok, verdict.reason

    @pytest.mark.parametrize("seed", range(6))
    def test_random_unsat_circuit_proofs(self, seed):
        rng = random.Random(seed)
        while True:
            c = build_random_circuit(seed * 31 + 5, num_inputs=4,
                                     num_gates=rng.randint(10, 30))
            probe = CSatEngine(c, SolverOptions())
            if probe.solve(assumptions=list(c.outputs)).status == UNSAT:
                break
            seed += 1000
        status, verdict = self._check_engine_proof(c, list(c.outputs))
        assert status == UNSAT
        assert verdict.ok, verdict.reason

    def test_proof_with_explicit_learning(self):
        """Explicit-learning lemmas (assumption refutations) must also be
        RUP steps in the final proof."""
        from repro.circuit.miter import miter_identical
        from repro.csat.explicit import run_explicit_learning
        from repro.sim.correlation import find_correlations
        m = miter_identical(build_full_adder())
        log = ProofLog()
        options = SolverOptions(implicit_learning=True,
                                explicit_learning=True)
        engine = CSatEngine(m, options, proof=log)
        correlations = find_correlations(m, seed=5)
        run_explicit_learning(engine, correlations)
        result = engine.solve(assumptions=list(m.outputs),
                              proof_refutation=True)
        assert result.status == UNSAT
        formula, _ = tseitin(m, objectives=list(m.outputs))
        verdict = check_drup(formula, log)
        assert verdict.ok, verdict.reason


class TestDuplicateLiteralRegression:
    """A raw AND(a, a) encodes to clauses with a repeated literal, e.g.
    [g, -a, -a]; counted twice, that clause never became unit and the
    checker rejected valid proofs."""

    @staticmethod
    def _self_and_miter():
        from repro import Circuit
        c = Circuit(strash=False)
        a = c.add_input()
        g = c.add_raw_and(a, a)
        i = c.add_raw_and(a ^ 1, a ^ 1)
        c.add_output(g ^ 1)
        c.add_output(i ^ 1)
        return c

    def test_certify_unsat_proof_accepts(self):
        from repro.verify.certify import certify_unsat_proof
        c = self._self_and_miter()
        log = ProofLog()
        result = CircuitSolver(c, preset("explicit"), proof=log).solve()
        assert result.status == UNSAT
        cert = certify_unsat_proof(c, log)
        assert cert.ok, cert.detail

    def test_certify_hook_accepts(self):
        c = self._self_and_miter()
        result = CircuitSolver(c, preset("explicit", certify=True)).solve()
        assert result.status == UNSAT


# ----------------------------------------------------------------------
# Differential test: watched-literal checker vs. the reference
# ----------------------------------------------------------------------

def _replace(steps, index, step):
    return steps[:index] + [step] + steps[index + 1:]


def _insert(steps, index, step):
    return steps[:index] + [step] + steps[index:]


def _mutants(formula, steps, rng):
    """(name, formula, steps, require_empty) for a real proof and seeded
    mutations of it."""
    nv = formula.num_vars
    clauses = [list(c) for c in formula.clauses]
    yield "original", formula, steps, True
    for require_empty in (True, False):
        yield "truncated", formula, steps[:len(steps) // 2], require_empty
    lemmas = [i for i, (kind, lits) in enumerate(steps)
              if kind == ADD and lits]
    units = [i for i in lemmas if len(steps[i][1]) == 1]
    for _ in range(3 if lemmas else 0):
        i = rng.choice(lemmas)
        lits = list(steps[i][1])
        yield "dropped lemma", formula, steps[:i] + steps[i + 1:], True
        flipped = list(lits)
        k = rng.randrange(len(flipped))
        flipped[k] = -flipped[k]
        yield ("flipped literal", formula,
               _replace(steps, i, (ADD, tuple(flipped))), True)
        # Deletion matches the clause as a set: order and repeats differ.
        deletion = (DELETE, tuple(reversed(lits)) + (lits[0],))
        yield ("deleted then needed", formula,
               _insert(steps, i + 1, deletion), True)
        doubled = list(lits)
        doubled.insert(rng.randrange(len(lits) + 1), rng.choice(lits))
        yield ("duplicate literals", formula,
               _replace(steps, i, (ADD, tuple(doubled))), True)
        if units:
            j = rng.choice(units)
            yield ("deleted unit", formula,
                   _insert(steps, j + 1, (DELETE, steps[j][1])), True)
    formula_units = [c for c in clauses if len(c) == 1]
    if formula_units:
        yield ("deleted original unit", formula,
               _insert(steps, 0, (DELETE, tuple(rng.choice(formula_units)))),
               True)
    var = rng.randint(1, nv + 1)
    yield ("tautology", formula,
           _insert(steps, rng.randrange(len(steps) + 1),
                   (ADD, (var, rng.randint(1, nv + 1), -var))), True)
    # With an empty clause in the formula every lemma is RUP, even a
    # fresh unit that nothing else could derive.
    yield ("empty clause in the formula",
           CnfFormula(num_vars=nv, clauses=clauses + [[]]),
           _insert(steps, 0, (ADD, (nv + 1,))), True)
    k = rng.randrange(len(clauses))
    yield ("duplicate literals in the formula",
           CnfFormula(num_vars=nv,
                      clauses=_replace(clauses, k, clauses[k] + clauses[k])),
           steps, True)
    yield ("tautology in the formula",
           CnfFormula(num_vars=nv, clauses=clauses + [[var, -var]]),
           steps, True)


def _assert_checkers_agree(formula, steps, rng):
    """Both checkers on the proof and its mutants; returns the verdicts."""
    verdicts = []
    for name, f, mutated, require_empty in _mutants(formula, list(steps),
                                                    rng):
        log = ProofLog(steps=list(mutated))
        got = check_drup(f, log, require_empty=require_empty)
        want = reference_check_drup(f, log, require_empty=require_empty)
        assert (got.ok, got.steps_checked) == \
            (want.ok, want.steps_checked), name
        assert got.reason == want.reason, name
        verdicts.append(got.ok)
    assert verdicts[0], "the unmutated proof must check"
    return verdicts


def _random_unsat_cnf(rng):
    while True:
        nv = rng.randint(12, 36)
        clauses = []
        for _ in range(int(rng.uniform(4.5, 6.0) * nv)):
            vs = rng.sample(range(1, nv + 1), 3)
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        f = CnfFormula(num_vars=nv, clauses=clauses)
        if CnfSolver(f).solve().status == UNSAT:
            return f


def _adder_miter():
    from repro.circuit.miter import miter
    from repro.gen.arith import carry_select_adder, ripple_adder
    return miter(ripple_adder(4), carry_select_adder(4))


def _multiplier_miter():
    from repro.circuit.miter import miter
    from repro.gen.arith import array_multiplier, csa_multiplier
    return miter(array_multiplier(3), csa_multiplier(3))


def _full_adder_miter():
    from repro.circuit.miter import miter_identical
    return miter_identical(build_full_adder())


class TestDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_cnf_solver_proofs(self, seed):
        rng = random.Random(seed)
        f = _random_unsat_cnf(rng)
        log = ProofLog()
        assert CnfSolver(f, proof=log).solve().status == UNSAT
        _assert_checkers_agree(f, log.steps, rng)

    @pytest.mark.parametrize("build", [
        _adder_miter, _multiplier_miter, _full_adder_miter,
        TestDuplicateLiteralRegression._self_and_miter])
    @pytest.mark.parametrize("name", ["csat", "explicit"])
    def test_circuit_engine_proofs(self, build, name):
        circuit = build()
        log = ProofLog()
        result = CircuitSolver(circuit, preset(name), proof=log).solve()
        assert result.status == UNSAT
        formula, _ = tseitin(circuit, objectives=list(circuit.outputs))
        _assert_checkers_agree(formula, log.steps, random.Random(len(log)))

    def test_mutations_reach_both_verdicts(self):
        verdicts = []
        for seed in range(4):
            rng = random.Random(seed)
            f = _random_unsat_cnf(rng)
            log = ProofLog()
            CnfSolver(f, proof=log).solve()
            verdicts += _assert_checkers_agree(f, log.steps, rng)
        assert True in verdicts and False in verdicts
