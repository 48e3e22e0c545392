"""The three batch workloads: closed loops with one caller.

``miter_unsat`` solves UNSAT equivalence miters with the ``explicit``
preset while logging a DRUP proof, then checks the proof.  ``vliw_sat``
solves satisfiable VLIW instances with ``explicit`` and replays the
model by simulation.  ``cube_mult`` solves multiplier miters with
``solve_cubes(workers=2)``, re-solves every closed cube's assumptions
with the ``repro.cnf`` baseline, and checks that the cubes cover the
whole input space.  Every answer of every pass is checked in full.

A run makes whole passes over the workload's pool, each in a seeded
order, so every run measures the same instances the same number of
times.  The number of passes is the run's seconds over the pool's pass
time pinned in :data:`PASS_SECONDS` (at least one), not a clock reading:
a faster solver then measures the same verdicts in less time.

The traced run visits the same instances.  Each instance is solved once
plainly, as in the untraced run, and once with spans around the calls
into each layer, which gives the tracing overhead and a check that both
solves reach the same verdict with the same conflict count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from inputs import SAT, UNSAT, Instance, pass_order
from measure import HostClock, Recorder, median

CUBE_WORKERS = 2
#: Nominal seconds of one pass over each pool: a run of S seconds makes
#: ``S // PASS_SECONDS`` passes.  Passes measured when the benchmark was
#: introduced (2-core x86 container, Python 3.11) took 3.5-5 s
#: (miter_unsat, checks included), 3-4 s (vliw_sat) and 4-5 s
#: (cube_mult), so a 20 s run makes four, five and four passes.
PASS_SECONDS = {"miter_unsat": 4.5, "vliw_sat": 4.0, "cube_mult": 5.0}


@dataclass
class Visit:
    """One instance solved and checked."""

    name: str
    status: str
    verdict_s: float
    check_s: Optional[float]   # None when no check ran
    ok: bool
    detail: str = ""
    host_ms: float = 0.0       # the reference loop's time around the visit

    @property
    def wrong(self) -> bool:
        """A decisive answer that failed its check (not a mere miss)."""
        return not self.ok and self.status in (SAT, UNSAT)


@dataclass
class BatchRun:
    visits: List[Visit] = field(default_factory=list)
    timed_s: float = 0.0
    passes: int = 0
    layers: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)


def pass_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_SECONDS[workload]))


def run_passes(pool: Sequence[Tuple[Instance, object]], seed: int,
               passes: int, visit: Callable[..., Visit]
               ) -> Tuple[List[Visit], float]:
    """Visit the pool pass by pass, probing the host's speed around each
    visit; returns the visits and the timed seconds."""
    clock = HostClock()
    start = time.perf_counter()
    circuits = {inst.name: circuit for inst, circuit in pool}
    instances = [inst for inst, _ in pool]
    visits = []
    for index in range(passes):
        for inst in pass_order(instances, seed, index):
            done = visit(inst, circuits[inst.name])
            done.host_ms = clock.around()
            visits.append(done)
    return visits, time.perf_counter() - start


# ----------------------------------------------------------------------
# Answer checks (independent of the solver that produced the answer)
# ----------------------------------------------------------------------

def check_answer(inst: Instance, circuit, status: str, model, proof
                 ) -> Tuple[bool, str, Optional[float]]:
    """Check an answer against the answer by construction and certify
    it: a DRUP check of the proof for UNSAT, a simulation replay of the
    model for SAT.  Returns (ok, detail, seconds of the certification or
    None if none ran)."""
    from repro.verify.certify import certify_sat_model, certify_unsat_proof
    if status != inst.expect:
        return False, "expected {}, got {}".format(inst.expect,
                                                   status), None
    t0 = time.perf_counter()
    if status == SAT:
        cert = certify_sat_model(circuit, model)
    else:
        cert = certify_unsat_proof(circuit, proof)
    return cert.ok, cert.detail, time.perf_counter() - t0


def _covers(cubes: List[List[int]]) -> bool:
    """True if the disjunction of the cubes (literal conjunctions) is a
    tautology, by case splitting on the variables the cubes mention."""
    if any(not cube for cube in cubes):
        return True
    if not cubes:
        return False
    var = cubes[0][0] >> 1
    for phase in (0, 1):
        true_lit, false_lit = 2 * var + phase, 2 * var + (1 - phase)
        branch = [[lit for lit in cube if lit != true_lit]
                  for cube in cubes if false_lit not in cube]
        if not _covers(branch):
            return False
    return True


def check_cubes(inst: Instance, circuit, report
                ) -> Tuple[bool, str, Optional[float]]:
    """A cube-mode UNSAT answer holds when every cube is UNSAT and the
    cubes together cover every input assignment.  Each cube's
    assumptions are re-solved with the ``repro.cnf`` baseline, which
    shares no code with the cube engine; that re-solve is the timed
    check.  The coverage test is the benchmark's own and is not timed."""
    from repro.circuit.cnf_convert import tseitin
    from repro.cnf.solver import CnfSolver
    status = report.result.status
    if status != inst.expect:
        return False, "expected {}, got {}".format(inst.expect,
                                                   status), None
    if not _covers([list(c.literals) for c in report.cubes]):
        return False, "cubes do not cover the space", None
    t0 = time.perf_counter()
    formula, var_of = tseitin(circuit)
    solver = CnfSolver(formula)
    for cube in report.cubes:
        assumptions = [-var_of[lit >> 1] if lit & 1 else var_of[lit >> 1]
                       for lit in cube.literals]
        if solver.solve(assumptions=assumptions).status != UNSAT:
            return False, "cube {} is not UNSAT".format(cube.index), \
                time.perf_counter() - t0
    return True, "", time.perf_counter() - t0


# ----------------------------------------------------------------------
# Untraced solves
# ----------------------------------------------------------------------

def _solve_circuit(inst: Instance, circuit, with_proof: bool):
    from repro.core.solver import CircuitSolver
    from repro.csat.options import preset
    from repro.proof import ProofLog
    proof = ProofLog() if with_proof else None
    t0 = time.perf_counter()
    solver = CircuitSolver(circuit, preset("explicit"), proof=proof)
    result = solver.solve()
    return time.perf_counter() - t0, solver, result, proof


def _solve_cubes(circuit):
    from repro.cube import solve_cubes
    t0 = time.perf_counter()
    report = solve_cubes(circuit, workers=CUBE_WORKERS)
    return time.perf_counter() - t0, report


def run_untraced(workload: str, pool, seed: int, seconds: float
                 ) -> BatchRun:
    run = BatchRun(passes=pass_count(workload, seconds))

    def visit(inst: Instance, circuit) -> Visit:
        if workload == "cube_mult":
            verdict, report = _solve_cubes(circuit)
            status = report.result.status
            ok, detail, check = check_cubes(inst, circuit, report)
        else:
            verdict, _, result, proof = _solve_circuit(
                inst, circuit, with_proof=inst.expect == UNSAT)
            status = result.status
            ok, detail, check = check_answer(inst, circuit, status,
                                             result.model, proof)
        return Visit(inst.name, status, verdict, check, ok, detail)

    run.visits, run.timed_s = run_passes(pool, seed, run.passes, visit)
    return run


# ----------------------------------------------------------------------
# Traced solves
# ----------------------------------------------------------------------

#: Per-layer sums the traced run accumulates (divided per verdict at
#: the end where the metric is a per-instance figure).
_SUMS = ("verdicts", "plain_s", "traced_s", "sim_s", "pairs", "constants",
         "explicit_s", "sub_run", "sub_unsat", "learned", "search_s",
         "decision_s", "bcp_s", "analyze_s", "clause_db_s", "conflicts",
         "decisions", "implications", "restarts", "jnode_decisions",
         "correlation_decisions", "proof_steps", "proof_checked_steps",
         "proof_checks", "proof_check_s", "model_checks", "model_check_s",
         "cut_s", "cubes", "pruned", "lemmas",
         "cube_busy_s", "conquer_capacity_s", "attempts", "dispatched",
         "residual_s", "mismatches")


def _traced_circuit(inst: Instance, circuit, rec: Recorder,
                    acc: Dict[str, float]) -> Visit:
    from repro.core.solver import CircuitSolver
    from repro.csat.options import preset
    from repro.proof import ProofLog
    from repro.sim.correlation import find_correlations
    with_proof = inst.expect == UNSAT
    plain_s, plain_solver, plain_result, _ = _solve_circuit(
        inst, circuit, with_proof)

    opts = preset("explicit", phase_timers=True)
    proof = ProofLog() if with_proof else None
    request = "{}#{}".format(inst.name, int(acc["verdicts"]))
    with rec.span("verdict", request):
        solver = CircuitSolver(circuit, opts, proof=proof)
        with rec.span("sim.correlate", request):
            t0 = time.perf_counter()
            corr = find_correlations(
                circuit, seed=opts.sim_seed, width=opts.sim_width,
                stall_rounds=opts.sim_stall_rounds,
                max_rounds=opts.sim_max_rounds,
                max_class_size=opts.max_class_size)
            corr.sim_seconds = time.perf_counter() - t0
        # prepare() skips simulation when correlations are present.
        solver.correlations = corr
        with rec.span("explicit.prepare", request):
            solver.prepare()
        with rec.span("engine.search", request):
            result = solver.solve()
    check_name = "proof.check" if with_proof else "verify.model_check"
    with rec.span(check_name, request):
        ok, detail, check_s = check_answer(inst, circuit, result.status,
                                           result.model, proof)
    if (result.status != plain_result.status
            or solver.stats.conflicts != plain_solver.stats.conflicts):
        acc["mismatches"] += 1
        ok = False
        detail = "traced solve differs: {} {} vs {} {}".format(
            result.status, solver.stats.conflicts, plain_result.status,
            plain_solver.stats.conflicts)

    spans = {s.name: s for s in rec.spans if s.request == request}
    verdict_s = spans["verdict"].seconds
    report = solver.explicit_report
    stats = result.stats           # the main search only (after prepare)
    phases = result.phase_seconds or {}
    acc["verdicts"] += 1
    acc["plain_s"] += plain_s
    acc["traced_s"] += verdict_s
    acc["sim_s"] += spans["sim.correlate"].seconds
    acc["pairs"] += len(corr.pair_correlations())
    acc["constants"] += len(corr.constant_correlations())
    acc["explicit_s"] += spans["explicit.prepare"].seconds
    if report is not None:
        acc["sub_run"] += report.subproblems_run
        acc["sub_unsat"] += report.subproblems_unsat
        acc["learned"] += report.learned_clauses
    acc["search_s"] += spans["engine.search"].seconds
    for phase in ("decision", "bcp", "analyze", "clause_db"):
        acc[phase + "_s"] += phases.get(phase, 0.0)
    acc["conflicts"] += stats.conflicts
    acc["decisions"] += stats.decisions
    acc["implications"] += stats.implications
    acc["restarts"] += stats.restarts
    acc["jnode_decisions"] += stats.jnode_decisions
    acc["correlation_decisions"] += stats.correlation_decisions
    if with_proof:
        acc["proof_steps"] += len(proof)
    if check_s is not None and with_proof:
        acc["proof_checks"] += 1
        acc["proof_checked_steps"] += len(proof)
        acc["proof_check_s"] += check_s
    elif check_s is not None:
        acc["model_checks"] += 1
        acc["model_check_s"] += check_s
    acc["residual_s"] += verdict_s - sum(
        spans[n].seconds for n in ("sim.correlate", "explicit.prepare",
                                   "engine.search"))
    return Visit(inst.name, result.status, verdict_s, check_s, ok, detail)


def _traced_cubes(inst: Instance, circuit, rec: Recorder,
                  acc: Dict[str, float]) -> Visit:
    plain_s, plain = _solve_cubes(circuit)
    request = "{}#{}".format(inst.name, int(acc["verdicts"]))
    with rec.span("verdict", request) as root:
        began = time.perf_counter()
        verdict_s, report = _solve_cubes(circuit)
    # The cube layer times its own phases; lay them out as child spans.
    sim = report.result.sim_seconds
    cut = report.generation_seconds
    rec.add("sim.correlate", request, began, began + sim, root)
    rec.add("cube.cut", request, began + sim, began + sim + cut, root)
    rec.add("cube.conquer", request, began + sim + cut,
            began + report.elapsed, root)
    with rec.span("cube.check", request):
        ok, detail, check_s = check_cubes(inst, circuit, report)
    if report.result.status != plain.result.status:
        acc["mismatches"] += 1
        ok = False
        detail = "traced solve differs: {} vs {}".format(
            report.result.status, plain.result.status)
    dispatched = [c for c in report.cubes if c.attempts > 0]
    conquer_s = max(0.0, report.elapsed - sim - cut)
    acc["verdicts"] += 1
    acc["plain_s"] += plain_s
    acc["traced_s"] += verdict_s
    acc["sim_s"] += sim
    acc["cut_s"] += cut
    acc["cubes"] += len(report.cubes)
    acc["pruned"] += report.pruned
    acc["lemmas"] += report.lemmas_shared
    acc["cube_busy_s"] += sum(c.seconds for c in dispatched)
    acc["conquer_capacity_s"] += CUBE_WORKERS * conquer_s
    acc["attempts"] += sum(c.attempts for c in dispatched)
    acc["dispatched"] += len(dispatched)
    acc["residual_s"] += verdict_s - report.elapsed
    acc["cube_seconds"].extend(c.seconds for c in dispatched)
    return Visit(inst.name, report.result.status, verdict_s, check_s, ok,
                 detail)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_traced(workload: str, pool, seed: int, seconds: float,
               rec: Recorder) -> BatchRun:
    # Every visit solves twice (plain and traced): half the passes keep
    # the traced run about as long as the untraced one.
    run = BatchRun(passes=max(1, pass_count(workload, seconds) // 2))
    acc: Dict[str, object] = {name: 0.0 for name in _SUMS}
    acc["cube_seconds"] = []
    tracer = _traced_cubes if workload == "cube_mult" else _traced_circuit

    def visit(inst: Instance, circuit) -> Visit:
        return tracer(inst, circuit, rec, acc)

    run.visits, run.timed_s = run_passes(pool, seed, run.passes, visit)
    n = acc["verdicts"] or 1.0
    search = acc["search_s"]
    run.layers = {
        "sim.correlate_s": acc["sim_s"] / n,
        "sim.pairs": acc["pairs"] / n,
        "sim.constants": acc["constants"] / n,
        "explicit.self_s": acc["explicit_s"] / n,
        "explicit.subproblems_run": acc["sub_run"] / n,
        "explicit.refuted_share": _ratio(acc["sub_unsat"], acc["sub_run"]),
        "explicit.learned_gates": acc["learned"] / n,
        "engine.search_s": search / n,
        "engine.decision_s": acc["decision_s"] / n,
        "engine.bcp_s": acc["bcp_s"] / n,
        "engine.analyze_s": acc["analyze_s"] / n,
        "engine.clause_db_s": acc["clause_db_s"] / n,
        "engine.conflicts": acc["conflicts"] / n,
        "engine.decisions": acc["decisions"] / n,
        "engine.implications_per_s": _ratio(acc["implications"], search),
        "engine.restarts": acc["restarts"] / n,
        "engine.jnode_decision_share": _ratio(acc["jnode_decisions"],
                                              acc["decisions"]),
        "engine.correlation_decision_share": _ratio(
            acc["correlation_decisions"], acc["decisions"]),
        "proof.steps": acc["proof_steps"] / n,
        "proof.check_s": _ratio(acc["proof_check_s"], acc["proof_checks"]),
        "proof.steps_per_s": _ratio(acc["proof_checked_steps"],
                                    acc["proof_check_s"]),
        "verify.model_check_s": _ratio(acc["model_check_s"],
                                       acc["model_checks"]),
        "cube.cut_s": acc["cut_s"] / n,
        "cube.cubes": acc["cubes"] / n,
        "cube.cube_p50_s": median(acc["cube_seconds"]),
        "cube.pruned_share": _ratio(acc["pruned"], acc["cubes"]),
        "cube.lemmas_shared": acc["lemmas"] / n,
        "cube.worker_busy_share": _ratio(acc["cube_busy_s"],
                                         acc["conquer_capacity_s"]),
        "cube.attempts_per_cube": _ratio(acc["attempts"],
                                         acc["dispatched"]),
        "trace.residual_share": _ratio(acc["residual_s"], acc["traced_s"]),
        "trace.overhead_share": _ratio(acc["traced_s"] - acc["plain_s"],
                                       acc["plain_s"]),
    }
    run.notes = {"verdicts": int(acc["verdicts"]),
                 "mismatches": int(acc["mismatches"]),
                 "layer_sums_s": {
                     "sim": acc["sim_s"], "explicit": acc["explicit_s"],
                     "search": search, "decision": acc["decision_s"],
                     "bcp": acc["bcp_s"], "cut": acc["cut_s"],
                     "residual": acc["residual_s"],
                     "verdict": acc["traced_s"]}}
    return run


def warm_up(workload: str) -> None:
    """Run the solve-and-check path once on a small miter, so lazy
    imports and heap growth are paid in set-up, as a long-running user
    pays them once, and not by whichever instance a run visits first."""
    from inputs import masked_multiplier
    inst = Instance("warm-up", UNSAT, lambda: masked_multiplier(3, None))
    circuit = inst.build()
    if workload == "cube_mult":
        _, report = _solve_cubes(circuit)
        check_cubes(inst, circuit, report)
    else:
        _, _, result, proof = _solve_circuit(inst, circuit, with_proof=True)
        check_answer(inst, circuit, result.status, result.model, proof)


def build_pool(instances: List[Instance]
               ) -> Tuple[List[Tuple[Instance, object]], float]:
    """Build every circuit of the pool; returns (pairs, build seconds)."""
    t0 = time.perf_counter()
    pairs = [(inst, inst.build()) for inst in instances]
    return pairs, time.perf_counter() - t0
