"""Tests for the fault-tolerant runtime: supervisor, portfolio, faults.

The fault-injection matrix below is the contract the robustness work is
built around: every failure kind the taxonomy names must be *producible*
on demand (via repro.runtime.faults) and must surface as exactly the
structured outcome the supervisor promises — never as a traceback or a
hang in the supervising process.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro import Circuit, miter
from repro.errors import (CORRUPT_ANSWER, CRASHED, LOST, MEMOUT, TIMEOUT,
                          SolverError, WorkerFailure)
from repro.result import Limits, SAT, SolverResult, UNKNOWN, UNSAT
from repro.obs.metrics import parse_exposition
from repro.obs.trace import Tracer
from repro.runtime import (EngineSpec, FaultPlan, WorkerJob, WorkerSlot,
                           default_ladder, run_supervised, solve_portfolio)
from repro.runtime.faults import NO_FAULTS
from repro.runtime.portfolio import ladder_from_names
from conftest import build_full_adder


def build_unsat_circuit() -> Circuit:
    """out = a AND NOT a — trivially UNSAT."""
    c = Circuit("contradiction")
    a = c.add_input("a")
    c.add_output(c.add_and(a, a ^ 1), "out")
    return c


def job_for(circuit: Circuit, fault=None, **kwargs) -> WorkerJob:
    return WorkerJob(circuit=circuit, name="explicit", fault=fault, **kwargs)


class SpawnLog(Tracer):
    """Keeps the ``worker_spawn`` events: one per job, with its pid and
    whether the job went to a warm worker."""

    enabled = True

    def __init__(self):
        self.spawns = []

    def emit(self, kind, **fields):
        if kind == "worker_spawn":
            self.spawns.append(fields)


def run_on(worker: str, job: WorkerJob, wall_seconds: float,
           grace_seconds: float = 1.0, certify: str = "sat"):
    """Run ``job`` on a fresh worker, or (``worker="warm"``) as the second
    job of a slot whose first job answered; returns (outcome, seconds the
    job itself took)."""
    if worker == "fresh":
        t0 = time.perf_counter()
        outcome = run_supervised(job, wall_seconds=wall_seconds,
                                 grace_seconds=grace_seconds, certify=certify)
        return outcome, time.perf_counter() - t0
    log = SpawnLog()
    slot = WorkerSlot(grace_seconds=grace_seconds)
    try:
        first = slot.run(job_for(build_full_adder(),
                                 mem_limit_mb=job.mem_limit_mb),
                         wall_seconds=30, tracer=log)
        assert first.ok
        t0 = time.perf_counter()
        outcome = slot.run(job, wall_seconds=wall_seconds, certify=certify,
                           tracer=log)
        seconds = time.perf_counter() - t0
    finally:
        slot.close()
    fresh, warm = log.spawns
    assert warm["reused"] and warm["pid"] == fresh["pid"]
    return outcome, seconds


# ----------------------------------------------------------------------
# Supervisor: healthy workers
# ----------------------------------------------------------------------

class TestSupervisorHealthy:
    def test_sat_roundtrip(self, full_adder):
        outcome = run_supervised(job_for(full_adder), wall_seconds=30)
        assert outcome.ok and outcome.decisive
        assert outcome.result.status == SAT
        assert outcome.result.model  # model crossed the boundary
        assert outcome.engine == "explicit"

    def test_unsat_roundtrip(self):
        outcome = run_supervised(job_for(build_unsat_circuit()),
                                 wall_seconds=30)
        assert outcome.ok
        assert outcome.result.status == UNSAT

    def test_cnf_kind_model_is_node_indexed(self, full_adder):
        outcome = run_supervised(
            WorkerJob(circuit=full_adder, name="cnf", kind="cnf"),
            wall_seconds=30, certify="sat")
        assert outcome.ok and outcome.result.status == SAT

    @pytest.mark.parametrize("kind", ["brute", "bdd"])
    def test_tiny_cone_engines(self, full_adder, kind):
        outcome = run_supervised(
            WorkerJob(circuit=full_adder, name=kind, kind=kind),
            wall_seconds=30)
        assert outcome.ok and outcome.result.status == SAT

    def test_full_certification_accepts_honest_unsat(self):
        outcome = run_supervised(job_for(build_unsat_circuit()),
                                 wall_seconds=30, certify="full")
        assert outcome.ok and outcome.result.status == UNSAT


# ----------------------------------------------------------------------
# Supervisor: the fault-injection matrix
# ----------------------------------------------------------------------

_FAULT_MATRIX = [
    ("crash", CRASHED),
    ("segv", CRASHED),
    ("hang", TIMEOUT),
    ("hang-hard", TIMEOUT),
    ("membomb", MEMOUT),
    ("lost", LOST),
    ("corrupt", CORRUPT_ANSWER),
]


class TestFaultMatrix:
    """Each injected fault must surface as its documented failure kind,
    on a fresh worker and on a warm one alike."""

    @pytest.mark.parametrize("fault,expected_kind,worker", [
        pytest.param(fault, kind, worker,
                     id=("" if worker == "fresh" else worker + "-")
                     + "{}-{}".format(fault, kind))
        for worker in ("fresh", "warm") for fault, kind in _FAULT_MATRIX])
    def test_fault_surfaces_as(self, full_adder, fault, expected_kind,
                               worker):
        wall, grace = 1.0, 0.5
        outcome, seconds = run_on(worker, job_for(full_adder, fault=fault),
                                  wall_seconds=wall, grace_seconds=grace)
        assert not outcome.ok
        assert isinstance(outcome.failure, WorkerFailure)
        assert outcome.failure.kind == expected_kind
        assert outcome.failure.engine == "explicit"
        # Documented overrun bound: budget + grace (plus scheduling slack).
        assert seconds <= wall + grace + 1.0

    def test_hang_killed_within_grace_of_budget(self, full_adder):
        wall, grace = 0.5, 0.5
        t0 = time.perf_counter()
        outcome = run_supervised(job_for(full_adder, fault="hang"),
                                 wall_seconds=wall, grace_seconds=grace)
        elapsed = time.perf_counter() - t0
        assert outcome.failure.kind == TIMEOUT
        # Documented bound: budget + grace (plus scheduling slack).
        assert elapsed <= wall + grace + 1.0

    def test_hang_hard_needs_sigkill_escalation(self, full_adder):
        wall, grace = 0.4, 0.4
        t0 = time.perf_counter()
        outcome = run_supervised(job_for(full_adder, fault="hang-hard"),
                                 wall_seconds=wall, grace_seconds=grace)
        elapsed = time.perf_counter() - t0
        assert outcome.failure.kind == TIMEOUT
        assert elapsed <= wall + grace + 1.0

    def test_membomb_with_cap_is_memout(self, full_adder):
        for worker in ("fresh", "warm"):
            outcome, _ = run_on(
                worker, job_for(full_adder, fault="membomb",
                                mem_limit_mb=256),
                wall_seconds=20, grace_seconds=1.0)
            assert outcome.failure.kind == MEMOUT
            assert "256" in outcome.failure.detail

    def test_owner_sigterm_handler_not_inherited(self, full_adder):
        # A server's graceful-drain hook is a Python SIGTERM handler; a
        # forked worker that kept it would swallow the watchdog's SIGTERM
        # and live until the SIGKILL a grace period later.
        wall, grace = 0.5, 3.0
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            t0 = time.perf_counter()
            outcome = run_supervised(job_for(full_adder, fault="hang"),
                                     wall_seconds=wall, grace_seconds=grace)
            elapsed = time.perf_counter() - t0
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert outcome.failure.kind == TIMEOUT
        assert elapsed < wall + grace / 2

    def test_owner_sigint_handler_not_inherited(self, full_adder,
                                                tmp_path):
        # A server installs its drain hook for SIGINT too, and a Ctrl-C
        # on the terminal reaches every worker in the process group.  A
        # worker must not run the owner's hook: an idle one retires.
        marker = tmp_path / "hook-ran"

        def hook(signum, frame):
            marker.write_text(str(os.getpid()))

        previous = signal.signal(signal.SIGINT, hook)
        slot = WorkerSlot()
        try:
            # After one answered job the worker has set its own handlers.
            assert slot.run(job_for(full_adder), wall_seconds=30).ok
            proc = slot.handle.proc
            os.kill(proc.pid, signal.SIGINT)
            proc.join(10)
            exitcode = proc.exitcode
        finally:
            slot.close()
            signal.signal(signal.SIGINT, previous)
        assert exitcode == 0
        assert not marker.exists()

    def test_corrupt_model_caught_by_sat_certification(self, full_adder):
        outcome = run_supervised(job_for(full_adder, fault="corrupt"),
                                 wall_seconds=30, certify="sat")
        assert outcome.failure.kind == CORRUPT_ANSWER

    def test_corrupt_model_trusted_when_certify_off(self, full_adder):
        outcome = run_supervised(job_for(full_adder, fault="corrupt"),
                                 wall_seconds=30, certify="off")
        assert outcome.ok  # certification off: tampering goes unnoticed

    def test_wrong_answer_caught_by_full_certification(self, full_adder):
        # SAT flipped to UNSAT with no proof: only "full" rejects it.
        outcome = run_supervised(job_for(full_adder, fault="wrong-answer"),
                                 wall_seconds=30, certify="full")
        assert outcome.failure.kind == CORRUPT_ANSWER

    def test_failure_as_dict_shape(self, full_adder):
        outcome = run_supervised(job_for(full_adder, fault="crash"),
                                 wall_seconds=10)
        record = outcome.failure.as_dict()
        assert set(record) == {"kind", "detail", "engine", "seconds"}
        assert record["kind"] == CRASHED


# ----------------------------------------------------------------------
# Warm workers: reuse, retirement, orphans
# ----------------------------------------------------------------------

class TestWarmWorker:
    def run_pair(self, first: WorkerJob, second: WorkerJob,
                 wall_seconds: float = 30.0):
        """Run two jobs on one slot; returns the second outcome and both
        ``worker_spawn`` events."""
        log = SpawnLog()
        slot = WorkerSlot(grace_seconds=0.5)
        try:
            slot.run(first, wall_seconds=30, tracer=log)
            handle = slot.handle
            outcome = slot.run(second, wall_seconds=wall_seconds,
                               tracer=log)
            if handle is not None and handle is not slot.handle:
                assert not handle.proc.is_alive()  # retired, not leaked
        finally:
            slot.close()
        return outcome, log.spawns

    def test_answered_worker_is_reused(self, full_adder, registry):
        outcome, (a, b) = self.run_pair(job_for(full_adder),
                                        job_for(build_unsat_circuit()))
        assert outcome.ok and outcome.result.status == UNSAT
        assert not a["reused"] and b["reused"] and a["pid"] == b["pid"]
        families = parse_exposition(registry.render())
        assert families["repro_worker_spawns_total"]["samples"][0][2] == 1
        assert families["repro_worker_jobs_total"]["samples"][0][2] == 2

    @pytest.mark.parametrize("fault", ["crash", "lost", "corrupt"])
    def test_never_reused_after_a_failure(self, full_adder, fault):
        # corrupt: the worker answered, but certification rejected it.
        _, (a, b) = self.run_pair(job_for(full_adder, fault=fault),
                                  job_for(full_adder))
        assert not b["reused"] and b["pid"] != a["pid"]

    def test_never_reused_after_a_kill(self, full_adder):
        log = SpawnLog()
        slot = WorkerSlot(grace_seconds=0.5)
        try:
            assert slot.run(job_for(full_adder), wall_seconds=30,
                            tracer=log).ok
            handle = slot.handle
            hung = slot.run(job_for(full_adder, fault="hang"),
                            wall_seconds=0.5, tracer=log)
            assert hung.failure.kind == TIMEOUT
            assert slot.handle is None and not handle.proc.is_alive()
            assert slot.run(job_for(full_adder), wall_seconds=30,
                            tracer=log).ok
        finally:
            slot.close()
        first, killed, after = log.spawns
        assert killed["reused"] and not after["reused"]
        assert after["pid"] != first["pid"]

    def test_never_reused_under_another_memory_cap(self, full_adder):
        outcome, (a, b) = self.run_pair(job_for(full_adder),
                                        job_for(full_adder,
                                                mem_limit_mb=512))
        assert outcome.ok
        assert not b["reused"] and b["pid"] != a["pid"]

    def test_fresh_and_warm_cube_jobs_agree(self):
        from repro.cube import generate_cubes
        from repro.gen.arith import array_multiplier, csa_multiplier
        circuit = miter(array_multiplier(4), csa_multiplier(4))
        # Miter output 1 is UNSAT under every cube; output 0 is SAT.
        goals = ([o for o in circuit.outputs],
                 [o ^ 1 for o in circuit.outputs])
        cubes = [(goal, cube.literals) for goal in goals
                 for cube in generate_cubes(circuit, goal,
                                            workers=2).cubes[:3]]

        def cube_jobs():
            for goal, literals in cubes:
                yield WorkerJob(circuit=circuit, name="cube",
                                preset_name="implicit", objectives=goal,
                                assumptions=list(literals),
                                export_lemmas=True)

        def answer(outcome):
            assert outcome.ok
            result = outcome.result
            return (result.status, result.stats.as_dict(), result.model,
                    result.core, outcome.lemmas)

        fresh = [answer(run_supervised(job, wall_seconds=60))
                 for job in cube_jobs()]
        log = SpawnLog()
        slot = WorkerSlot()
        try:
            warm = [answer(slot.run(job, wall_seconds=60, tracer=log))
                    for job in cube_jobs()]
        finally:
            slot.close()
        assert [s["reused"] for s in log.spawns] == [False] + [True] * 5
        assert {SAT, UNSAT} <= {status for status, *_ in fresh}
        assert warm == fresh

    def test_orphaned_worker_exits(self, tmp_path):
        # The owner runs one job on a slot (its worker now idles, warm),
        # reports the worker pid and dies by SIGKILL: no close(), no None
        # on the job pipe.  The worker must notice and exit by itself.
        owner = tmp_path / "owner.py"
        owner.write_text(
            "import os, signal\n"
            "from repro import Circuit\n"
            "from repro.runtime import WorkerJob, WorkerSlot\n"
            "c = Circuit('and2')\n"
            "c.add_output(c.add_and(c.add_input('a'), c.add_input('b')))\n"
            "slot = WorkerSlot()\n"
            "assert slot.run(WorkerJob(circuit=c), wall_seconds=30).ok\n"
            "print(slot.handle.proc.pid, flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        # Read one line, not to EOF: the worker inherits the owner's
        # stdout and would hold it open for as long as it lives.
        with subprocess.Popen([sys.executable, str(owner)], env=env,
                              stdout=subprocess.PIPE) as proc:
            pid = int(proc.stdout.readline())
            assert proc.wait(timeout=60) == -signal.SIGKILL
        deadline = time.monotonic() + 2.0
        while _process_alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        alive = _process_alive(pid)
        if alive:
            os.kill(pid, signal.SIGKILL)
        assert not alive, "worker outlived its owner by 2 s"


def _process_alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper counts as
    gone)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open("/proc/{}/stat".format(pid)) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return True


# ----------------------------------------------------------------------
# Portfolio failover
# ----------------------------------------------------------------------

class TestPortfolio:
    def test_sequential_winner(self, full_adder):
        report = solve_portfolio(full_adder, budget=30, workers=1)
        assert report.result.status == SAT
        assert report.winner is not None
        assert not report.degraded
        assert report.result.engine == report.winner

    def test_racing_winner(self, full_adder):
        report = solve_portfolio(full_adder, budget=30, workers=3)
        assert report.result.status == SAT
        assert report.winner is not None

    def test_unsat_instance(self):
        report = solve_portfolio(build_unsat_circuit(), budget=30)
        assert report.result.status == UNSAT

    def test_crash_retry_success(self, full_adder):
        # First spawn crashes; the reseeded retry wins.
        ladder = [EngineSpec("explicit")]
        report = solve_portfolio(full_adder, budget=30, ladder=ladder,
                                 max_retries=1,
                                 faults=FaultPlan.parse("crash@0"))
        assert report.result.status == SAT
        assert report.winner == "explicit"
        outcomes = [a.outcome for a in report.attempts]
        assert outcomes == [CRASHED, SAT]
        # The crash stays on the record as failure provenance.
        assert report.result.failures[0]["kind"] == CRASHED

    def test_corrupt_answer_downgrade_then_failover(self, full_adder):
        # Rung 0 tampers with its answer; certification downgrades it to
        # CORRUPT_ANSWER and the next rung answers instead.
        ladder = [EngineSpec("explicit"), EngineSpec("cnf", "cnf")]
        report = solve_portfolio(full_adder, budget=30, ladder=ladder,
                                 max_retries=0,
                                 faults=FaultPlan.parse("corrupt@0"))
        assert report.result.status == SAT
        assert report.winner == "cnf"
        assert report.attempts[0].outcome == CORRUPT_ANSWER

    def test_timeout_not_retried(self, full_adder):
        ladder = [EngineSpec("explicit")]
        report = solve_portfolio(full_adder, budget=1.0, grace_seconds=0.3,
                                 ladder=ladder, max_retries=2,
                                 faults=FaultPlan.parse("hang-hard@*"))
        # TIMEOUT is deterministic exhaustion: exactly one attempt.
        assert len(report.attempts) == 1
        assert report.attempts[0].outcome == TIMEOUT

    def test_total_failure_degrades_to_structured_unknown(self, full_adder):
        budget, grace = 1.5, 0.3
        t0 = time.perf_counter()
        report = solve_portfolio(full_adder, budget=budget,
                                 grace_seconds=grace,
                                 faults=FaultPlan.parse("hang-hard@*"))
        elapsed = time.perf_counter() - t0
        assert report.degraded
        result = report.result
        assert isinstance(result, SolverResult)
        assert result.status == UNKNOWN
        assert result.failures  # full provenance survives
        assert all(f["kind"] == TIMEOUT for f in result.failures)
        # Hard bound: budget + grace (+ slack for process teardown).
        assert elapsed <= budget + grace + 1.5

    def test_degraded_merges_cooperative_stats(self, full_adder):
        # Healthy workers under a zero-conflict budget return UNKNOWN
        # cooperatively; their partial stats are merged into the result.
        ladder = [EngineSpec("explicit"), EngineSpec("csat", preset="csat")]
        jobs = [spec.job(full_adder, None, 0, None, False, None)
                for spec in ladder]
        for job in jobs:
            job.limits = Limits(max_conflicts=0)
        report = solve_portfolio(full_adder, budget=30, ladder=ladder)
        assert report.result.status == SAT  # trivial instance still solves

    def test_budget_exhausted_skips_remaining_rungs(self, full_adder):
        ladder = [EngineSpec("explicit"), EngineSpec("cnf", "cnf"),
                  EngineSpec("brute", "brute")]
        report = solve_portfolio(full_adder, budget=0.8, grace_seconds=0.2,
                                 ladder=ladder,
                                 faults=FaultPlan.parse("hang@*"))
        assert report.degraded
        assert report.attempts  # at least one rung ran into the wall
        # Whatever never started is reported, not silently dropped.
        assert len(report.attempts) + len(report.skipped) <= 2 * len(ladder)

    def test_invalid_arguments(self, full_adder):
        with pytest.raises(ValueError):
            solve_portfolio(full_adder, workers=0)
        with pytest.raises(ValueError):
            solve_portfolio(full_adder, certify="paranoid")

    def test_report_as_dict(self, full_adder):
        report = solve_portfolio(full_adder, budget=30)
        data = report.as_dict()
        assert data["winner"] == report.winner
        assert data["result"]["status"] == report.result.status
        assert isinstance(data["attempts"], list)

    def test_default_ladder_scales_with_circuit(self, full_adder):
        names = [spec.name for spec in default_ladder(full_adder)]
        assert "explicit" in names and "cnf" in names
        assert "brute" in names and "bdd" in names  # tiny circuit
        big = Circuit("big")
        lits = [big.add_input("i{}".format(k)) for k in range(20)]
        acc = lits[0]
        for lit in lits[1:]:
            acc = big.add_and(acc, lit)
        big.add_output(acc, "o")
        names = [spec.name for spec in default_ladder(big)]
        assert "brute" not in names  # too many inputs to enumerate

    def test_ladder_from_names(self):
        specs = ladder_from_names(["explicit", "cnf", "brute", "bdd"])
        assert [s.kind for s in specs] == ["csat", "cnf", "brute", "bdd"]


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_empty(self):
        assert FaultPlan.parse(None).empty
        assert FaultPlan.parse("").empty
        assert NO_FAULTS.fault_for(0) is None

    def test_indexed_and_wildcard(self):
        plan = FaultPlan.parse("crash@0,hang@2")
        assert plan.fault_for(0) == "crash"
        assert plan.fault_for(1) is None
        assert plan.fault_for(2) == "hang"
        plan = FaultPlan.parse("segv@*")
        assert plan.fault_for(0) == plan.fault_for(17) == "segv"

    def test_index_beats_wildcard(self):
        plan = FaultPlan.parse("crash@*,lost@1")
        assert plan.fault_for(0) == "crash"
        assert plan.fault_for(1) == "lost"

    def test_probabilistic_terms_are_deterministic(self):
        plan_a = FaultPlan.parse("crash@p0.5", seed=7)
        plan_b = FaultPlan.parse("crash@p0.5", seed=7)
        draws = [plan_a.fault_for(i) for i in range(64)]
        assert draws == [plan_b.fault_for(i) for i in range(64)]
        assert "crash" in draws and None in draws  # both sides occur

    @pytest.mark.parametrize("spec", ["explode@0", "crash", "crash@x"])
    def test_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)


# ----------------------------------------------------------------------
# Limits edge cases (satellite): zero/negative budgets, validation
# ----------------------------------------------------------------------

class TestLimitsEdgeCases:
    @pytest.mark.parametrize("seconds", [0, -1, 0.0, -3.5])
    def test_zero_or_negative_seconds_is_immediate_unknown(
            self, full_adder, seconds):
        from repro.cnf.solver import CnfSolver
        from repro.circuit.cnf_convert import tseitin
        from repro.core.solver import solve_circuit
        limits = Limits(max_seconds=seconds)
        result = solve_circuit(full_adder, limits=limits)
        assert result.status == UNKNOWN
        formula, _ = tseitin(full_adder, objectives=list(full_adder.outputs))
        result = CnfSolver(formula).solve(limits=Limits(max_seconds=seconds))
        assert result.status == UNKNOWN  # identical on both engines

    @pytest.mark.parametrize("field,value", [
        ("max_conflicts", 0), ("max_decisions", -2)])
    def test_zero_or_negative_counters_are_immediate_unknown(
            self, full_adder, field, value):
        from repro.core.solver import solve_circuit
        result = solve_circuit(full_adder, limits=Limits(**{field: value}))
        assert result.status == UNKNOWN

    def test_exhausted_on_entry(self):
        assert Limits(max_seconds=0).exhausted_on_entry()
        assert Limits(max_conflicts=-1).exhausted_on_entry()
        assert not Limits().exhausted_on_entry()
        assert not Limits(max_seconds=1).exhausted_on_entry()

    @pytest.mark.parametrize("kwargs", [
        {"max_conflicts": True},
        {"max_conflicts": 1.5},
        {"max_seconds": float("nan")},
        {"max_seconds": "soon"},
        {"max_decisions": "many"},
    ])
    def test_validate_rejects_bad_types(self, kwargs):
        with pytest.raises(SolverError):
            Limits(**kwargs).validate()

    def test_validate_returns_self(self):
        limits = Limits(max_seconds=5)
        assert limits.validate() is limits


# ----------------------------------------------------------------------
# KeyboardInterrupt containment (satellite)
# ----------------------------------------------------------------------

class TestKeyboardInterrupt:
    def test_csat_engine_returns_unknown(self, full_adder, monkeypatch):
        from repro.core.solver import CircuitSolver
        from repro.csat.engine import CSatEngine
        from repro.csat.options import preset

        def boom(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(CSatEngine, "_search", boom)
        result = CircuitSolver(full_adder, preset("explicit")).solve()
        assert result.status == UNKNOWN
        assert result.interrupted

    def test_cnf_solver_returns_unknown(self, full_adder, monkeypatch):
        from repro.circuit.cnf_convert import tseitin
        from repro.cnf.solver import CnfSolver

        def boom(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(CnfSolver, "_search", boom)
        formula, _ = tseitin(full_adder, objectives=list(full_adder.outputs))
        result = CnfSolver(formula).solve()
        assert result.status == UNKNOWN
        assert result.interrupted

    def test_core_solver_contains_interrupt_in_prepare(self, full_adder,
                                                       monkeypatch):
        from repro.core import solver as core_solver

        def boom(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(core_solver.CircuitSolver, "prepare", boom)
        result = core_solver.CircuitSolver(full_adder).solve()
        assert result.status == UNKNOWN
        assert result.interrupted

    def test_interrupted_survives_as_dict(self):
        result = SolverResult(status=UNKNOWN, interrupted=True)
        assert result.as_dict()["interrupted"] is True
