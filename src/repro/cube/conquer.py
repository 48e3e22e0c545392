"""Conquer: solve a cube tree across isolated workers (or in-process).

The driver runs one random-simulation pass, hands the resulting
correlations to the cutter, and schedules the open cubes:

* ``workers >= 1`` — each cube is a :class:`~repro.runtime.worker.WorkerJob`
  (``solve(assumptions=cube)`` on a csat or cnf engine) under the
  :mod:`repro.runtime` supervisor's hard limits.  The scheduler keeps a
  work queue and pulls the next cube whenever a worker slot frees (work
  stealing over a shared deque); the first certified SAT answer cancels
  every sibling, and UNSAT answers accumulate until the whole partition
  is refuted.  Failures reuse the PR 3 taxonomy: CRASHED /
  CORRUPT_ANSWER / LOST cubes are retried (reseeded) up to
  ``max_retries``; TIMEOUT / MEMOUT are final.  A worker whose cube
  answered cleanly stays warm and takes the next cube on a fresh
  engine; a failed one is retired.  The pool lives for one call.

* ``workers == 0`` — every cube is solved sequentially on one shared
  in-process engine.  No isolation, but the learned-clause database
  persists across cubes (perfect sharing); this is the mode the
  differential oracle cross-checks and the tests compare against plain
  ``solve``.

Knowledge sharing (:mod:`repro.cube.sharing`): correlations are
discovered once, here, and seeded into every worker; unit/binary lemmas
proven by finished cubes are injected into cubes that have not started.

Failed-assumption cores prune siblings: when a cube comes back UNSAT
with a core, any queued cube whose literal set contains the core's
cube-literals is UNSAT by the same argument and is marked PRUNED
without being solved.  An UNSAT core containing *no* cube literal
refutes the instance outright.

``certify`` stops at ``"sat"``: an UNSAT-under-assumptions answer has no
closed DRUP proof, and injected lemmas would appear in a worker's proof
without derivation, so full boundary certification is structurally
impossible in cube mode.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..circuit.netlist import Circuit
from ..core.solver import CircuitSolver
from ..csat.options import SolverOptions, preset
from ..errors import SolverError, WorkerFailure
from ..result import Limits, SAT, SolverResult, SolverStats, UNKNOWN, UNSAT
from ..runtime.faults import FaultPlan, NO_FAULTS
from ..runtime.portfolio import RESEED_STRIDE, RETRYABLE
from ..runtime.supervisor import (CERTIFY_FULL, CERTIFY_LEVELS, CERTIFY_SAT,
                                  WorkerHandle, start_job)
from ..runtime.worker import KIND_CNF, KIND_CSAT, WorkerJob
from ..obs import make_tracer
from ..obs.context import child_context, context_of
from ..obs.metrics import default_registry
from ..sim.correlation import find_correlations
from .cutter import Cube, CubeSet, CutterOptions, generate_cubes
from .sharing import SharedKnowledge, serialize_classes

#: Cube statuses beyond the engine's SAT/UNSAT/UNKNOWN.
REFUTED = "REFUTED"    # closed by the cutter's own propagation
PRUNED = "PRUNED"      # subsumed by another cube's failed-assumption core
SKIPPED = "SKIPPED"    # budget ran out before the cube started

#: Statuses that count as "this part of the partition is UNSAT".
_CLOSED = (UNSAT, REFUTED, PRUNED)


@dataclass
class CubeOutcome:
    """Provenance for one cube of the partition."""

    index: int
    literals: List[int]
    status: str = SKIPPED   # SAT/UNSAT/UNKNOWN/REFUTED/PRUNED/SKIPPED
    #                         or a failure kind (TIMEOUT/MEMOUT/...)
    seconds: float = 0.0
    attempts: int = 0
    pruned_by: Optional[int] = None   # index of the core-donating cube
    core_size: Optional[int] = None
    lemmas_exported: int = 0
    detail: str = ""
    #: Conquer node that produced the terminal answer (distributed mode
    #: only; None for local conquest).  Checkpoints carry it so a resumed
    #: coordinator knows the prior assignment.
    node: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {"index": self.index, "literals": list(self.literals),
                "status": self.status, "seconds": round(self.seconds, 6),
                "attempts": self.attempts, "pruned_by": self.pruned_by,
                "core_size": self.core_size,
                "lemmas_exported": self.lemmas_exported,
                "detail": self.detail, "node": self.node}


@dataclass
class CubeReport:
    """Everything one cube-and-conquer run produced."""

    result: SolverResult
    cubes: List[CubeOutcome] = field(default_factory=list)
    workers: int = 0
    generation_seconds: float = 0.0
    lookaheads: int = 0
    lemmas_shared: int = 0
    pruned: int = 0
    elapsed: float = 0.0
    #: Cubes restored as already-closed from a ``--resume`` checkpoint.
    resumed: int = 0

    @property
    def solved(self) -> int:
        return sum(1 for c in self.cubes if c.status in (SAT, UNSAT))

    def summary(self) -> str:
        closed = sum(1 for c in self.cubes if c.status in _CLOSED)
        return ("{} [cube] {} cubes ({} closed, {} pruned), "
                "{} lemmas shared, {:.3f}s".format(
                    self.result.status, len(self.cubes), closed,
                    self.pruned, self.lemmas_shared, self.elapsed))

    def as_dict(self) -> Dict[str, Any]:
        return {"summary": self.summary(),
                "workers": self.workers,
                "cubes": [c.as_dict() for c in self.cubes],
                "generation_seconds": round(self.generation_seconds, 6),
                "lookaheads": self.lookaheads,
                "lemmas_shared": self.lemmas_shared,
                "pruned": self.pruned,
                "elapsed": round(self.elapsed, 6),
                "resumed": self.resumed,
                "result": self.result.as_dict()}


def core_cube_literals(core: Optional[Sequence[int]],
                       cube_literals: Sequence[int]) -> Optional[List[int]]:
    """The cube's share of a failed-assumption core, or None for no core.

    The worker solves ``objectives + cube`` as assumptions, so the core
    mixes objective and cube literals; only the cube part transfers to
    siblings (they share the objectives anyway).
    """
    if core is None:
        return None
    cube_set = set(cube_literals)
    return [l for l in core if l in cube_set]


def prunes(core_cube: Sequence[int], other_literals: Sequence[int]) -> bool:
    """Does a core refute another cube?  True when every core literal is
    asserted by the other cube as well — the same conflict replays."""
    return set(core_cube) <= set(other_literals)


def _per_cube_limits(limits: Optional[Limits],
                     remaining: Optional[float]) -> Optional[Limits]:
    """Fresh cooperative Limits for one cube: caller's per-cube budgets
    plus whatever wall-clock is left of the shared budget."""
    if limits is None and remaining is None:
        return None
    max_seconds = limits.max_seconds if limits is not None else None
    if remaining is not None:
        remaining = max(0.001, remaining)
        max_seconds = (remaining if max_seconds is None
                       else min(max_seconds, remaining))
    return Limits(
        max_conflicts=limits.max_conflicts if limits is not None else None,
        max_decisions=limits.max_decisions if limits is not None else None,
        max_seconds=max_seconds)


class _Checkpointer:
    """Cuts an atomic :mod:`repro.durable.checkpoint` every N completions.

    ``lemmas_fn`` is installed by the conquest mode once its lemma pool
    exists; until then checkpoints carry an empty pool (still resumable —
    lemmas are an accelerator, not state).
    """

    def __init__(self, path: str, every: int, digest: str, exact: str,
                 objectives: Sequence[int],
                 outcomes: Dict[int, CubeOutcome],
                 depths: Dict[int, int], tracer=None):
        self.path = path
        self.every = max(1, every)
        self.digest = digest
        self.exact = exact
        self.objectives = list(objectives)
        self.outcomes = outcomes
        self.depths = depths
        self.tracer = tracer
        self.lemmas_fn = lambda: []
        self.saves = 0
        self._since = 0

    def completed(self, count: int = 1, force: bool = False) -> None:
        """One more cube reached a terminal status; save on cadence."""
        self._since += count
        if force or self._since >= self.every:
            self.save()

    def save(self) -> None:
        from ..durable.checkpoint import CubeCheckpoint, save_checkpoint
        cubes = []
        for index in sorted(self.outcomes):
            raw = self.outcomes[index].as_dict()
            raw["depth"] = self.depths.get(
                index, len(raw.get("literals") or []))
            cubes.append(raw)
        closed = sum(1 for o in self.outcomes.values()
                     if o.status in _CLOSED)
        checkpoint = CubeCheckpoint(
            digest=self.digest, exact=self.exact,
            objectives=self.objectives, cubes=cubes,
            lemmas=self.lemmas_fn(), completed=closed)
        try:
            save_checkpoint(self.path, checkpoint)
        except OSError:
            return  # checkpointing must never kill the conquest
        self.saves += 1
        self._since = 0
        if self.tracer is not None:
            self.tracer.emit("cube_checkpoint", path=self.path,
                             closed=closed, lemmas=len(checkpoint.lemmas))


def _restore_cubes(checkpoint, outcomes: Dict[int, CubeOutcome],
                   depths: Dict[int, int], tracer=None):
    """Rebuild the open cube set from a checkpoint.

    Closed cubes (UNSAT / REFUTED / PRUNED) keep their recorded
    provenance and are never re-solved; everything else — SKIPPED,
    UNKNOWN, failure kinds, even a recorded SAT (cheap to re-derive and
    its model was not persisted) — is reopened for a fresh attempt.
    """
    open_cubes: List[Cube] = []
    resumed = 0
    for raw in checkpoint.cubes:
        literals = [int(l) for l in raw.get("literals") or []]
        index = int(raw.get("index", len(outcomes)))
        depths[index] = int(raw.get("depth", len(literals)))
        outcome = CubeOutcome(
            index, literals, status=str(raw.get("status") or SKIPPED),
            seconds=float(raw.get("seconds", 0.0)),
            attempts=int(raw.get("attempts", 0)),
            pruned_by=raw.get("pruned_by"),
            core_size=raw.get("core_size"),
            lemmas_exported=int(raw.get("lemmas_exported", 0)),
            detail=str(raw.get("detail") or ""),
            node=raw.get("node"))
        outcomes[index] = outcome
        if outcome.status in _CLOSED:
            resumed += 1
            continue
        outcome.status = SKIPPED
        outcome.detail = ""
        open_cubes.append(Cube(index=index, literals=tuple(literals),
                               depth=depths[index]))
    registry = default_registry()
    if registry is not None:
        registry.counter(
            "repro_cube_resumed_total",
            "Cubes restored as already closed from a checkpoint",
        ).inc(resumed)
    if tracer is not None:
        tracer.emit("cube_resume", closed=resumed, open=len(open_cubes),
                    lemmas=len(checkpoint.lemmas))
    return CubeSet(cubes=open_cubes), resumed


def solve_cubes(circuit: Circuit,
                objectives: Optional[Sequence[int]] = None,
                *,
                workers: int = 4,
                cutter: Optional[CutterOptions] = None,
                kind: str = KIND_CSAT,
                preset_name: str = "implicit",
                backend: str = "legacy",
                options: Optional[SolverOptions] = None,
                budget: Optional[float] = None,
                limits: Optional[Limits] = None,
                mem_limit_mb: Optional[int] = None,
                grace_seconds: float = 1.0,
                max_retries: int = 1,
                certify: str = CERTIFY_SAT,
                share_lemmas: bool = True,
                sim_seed: Optional[int] = None,
                faults: Optional[FaultPlan] = None,
                trace=None,
                start_method: Optional[str] = None,
                checkpoint_path: Optional[str] = None,
                checkpoint_every: int = 8,
                resume_from: Optional[str] = None) -> CubeReport:
    """Cube-and-conquer solve of ``circuit`` under ``objectives``.

    ``workers >= 1`` schedules cubes over that many isolated processes;
    ``workers == 0`` solves them sequentially on one shared in-process
    engine (used by the differential oracle).  ``budget`` is the shared
    wall-clock budget for the whole run; ``limits`` are *per-cube*
    cooperative budgets (conflicts/decisions/seconds).  The default
    per-worker engine is the ``implicit`` preset: explicit learning's
    per-worker preparation does not amortize over one cube, while
    implicit learning rides the correlations seeded by the driver.

    Never raises for worker misbehaviour; failed cubes carry their
    failure kind in the report and degrade the answer to UNKNOWN at
    worst.

    Durability: ``checkpoint_path`` persists the cube tree, per-cube
    outcomes, and the deduped lemma pool atomically every
    ``checkpoint_every`` completions; ``resume_from`` reloads such a
    checkpoint — refusing a mismatched circuit/objectives — skips the
    closed cubes and re-injects the lemma pool.  Raises
    :class:`repro.durable.checkpoint.CheckpointError` on a checkpoint
    that does not belong to this instance.
    """
    if workers < 0:
        raise ValueError("workers must be >= 0")
    if kind not in (KIND_CSAT, KIND_CNF):
        raise ValueError("cube workers must be csat or cnf, not "
                         "{!r}".format(kind))
    if certify not in CERTIFY_LEVELS:
        raise ValueError("certify must be one of {}".format(CERTIFY_LEVELS))
    if certify == CERTIFY_FULL:
        raise ValueError(
            "cube mode cannot certify UNSAT proofs: per-cube refutations "
            "carry no closed DRUP derivation and shared lemmas have none "
            "either; use certify='sat'")
    if budget is not None:
        Limits(max_seconds=budget).validate()
    if limits is not None:
        limits.validate()
    faults = faults or NO_FAULTS
    tracer = make_tracer(trace)
    # A path/file spec means we opened the sink here and must close it;
    # a Tracer instance stays owned by the caller.
    from ..obs import Tracer as _Tracer
    owns_tracer = tracer is not None and not isinstance(trace, _Tracer)
    span_ctx = None
    if tracer is not None:
        # Bind a cube-phase span (child of the caller's span, or a fresh
        # root) so worker sub-spans correlate back to this conquest.
        span_ctx = child_context(context_of(tracer))
        tracer.context = span_ctx
        fields = span_ctx.as_fields()
        fields.update(name="cube", workers=workers)
        tracer.emit("span_start", **fields)

    if objectives is None:
        objectives = list(circuit.outputs)
        if not objectives:
            raise SolverError("circuit has no outputs and no objectives "
                              "were given")
    objectives = list(objectives)

    resumed_checkpoint = None
    if resume_from is not None:
        from ..durable.checkpoint import load_checkpoint
        try:
            resumed_checkpoint = load_checkpoint(resume_from)
            resumed_checkpoint.validate_for(circuit, objectives)
        except Exception:
            if tracer is not None and owns_tracer:
                tracer.close()
            raise
        if checkpoint_path is None:
            # Resuming continues to checkpoint the same file by default.
            checkpoint_path = resume_from

    start = time.perf_counter()
    deadline = start + budget if budget is not None else None

    base_options = options if options is not None else preset(preset_name)
    seed = sim_seed if sim_seed is not None else base_options.sim_seed

    # One simulation pass for everyone: cutter scoring + worker seeding.
    t0 = time.perf_counter()
    correlations = find_correlations(
        circuit, seed=seed, width=base_options.sim_width,
        stall_rounds=base_options.sim_stall_rounds,
        max_rounds=base_options.sim_max_rounds,
        max_class_size=base_options.max_class_size)
    sim_seconds = time.perf_counter() - t0

    cutter = cutter or CutterOptions()
    outcomes: Dict[int, CubeOutcome] = {}
    depths: Dict[int, int] = {}
    resumed = 0
    if resumed_checkpoint is not None:
        # The cube tree comes from the checkpoint, not the cutter: the
        # partition must be byte-identical to the one the statuses and
        # lemma pool were recorded under.
        cube_set, resumed = _restore_cubes(resumed_checkpoint, outcomes,
                                           depths, tracer)
    else:
        cube_set = generate_cubes(circuit, objectives, options=cutter,
                                  correlations=correlations, workers=workers)
        if tracer is not None:
            tracer.emit("cube_generated", cubes=len(cube_set.cubes),
                        refuted=len(cube_set.refuted),
                        trivial=cube_set.trivial,
                        lookaheads=cube_set.lookaheads,
                        seconds=round(cube_set.seconds, 6))
        for cube in cube_set.cubes:
            outcomes[cube.index] = CubeOutcome(cube.index,
                                               list(cube.literals))
            depths[cube.index] = cube.depth
        for cube in cube_set.refuted:
            outcomes[cube.index] = CubeOutcome(cube.index,
                                               list(cube.literals),
                                               status=REFUTED)
            depths[cube.index] = cube.depth

    checkpointer = None
    if checkpoint_path is not None:
        from ..durable.checkpoint import exact_hash
        if resumed_checkpoint is not None:
            digest, exact = (resumed_checkpoint.digest,
                             resumed_checkpoint.exact)
        else:
            from ..serve.fingerprint import fingerprint as _fingerprint
            digest, exact = _fingerprint(circuit).digest, exact_hash(circuit)
        checkpointer = _Checkpointer(checkpoint_path, checkpoint_every,
                                     digest, exact, objectives, outcomes,
                                     depths, tracer=tracer)
    seed_pool = resumed_checkpoint.lemmas if resumed_checkpoint else None

    report = CubeReport(result=SolverResult(status=UNKNOWN),
                        workers=workers,
                        generation_seconds=cube_set.seconds,
                        lookaheads=cube_set.lookaheads,
                        resumed=resumed)

    def finish(result: SolverResult) -> CubeReport:
        result.engine = "cube"
        result.sim_seconds = sim_seconds
        result.time_seconds = time.perf_counter() - start
        report.result = result
        report.cubes = [outcomes[i] for i in sorted(outcomes)]
        report.pruned = sum(1 for c in report.cubes if c.status == PRUNED)
        report.elapsed = result.time_seconds
        if checkpointer is not None and outcomes:
            # Final cut: a budget-exhausted (UNKNOWN) run resumes from
            # exactly where it stopped.
            checkpointer.save()
        if tracer is not None:
            tracer.emit("cube_end", status=result.status,
                        cubes=len(report.cubes), pruned=report.pruned,
                        lemmas=report.lemmas_shared,
                        seconds=round(report.elapsed, 6))
            if span_ctx is not None:
                tracer.emit("span_end", span=span_ctx.span_id,
                            status=result.status)
            if owns_tracer:
                tracer.close()
        registry = default_registry()
        if registry is not None:
            cube_total = registry.counter(
                "repro_cube_total", "Cube outcomes by final status",
                labelnames=("status",))
            for outcome in report.cubes:
                cube_total.labels(status=outcome.status).inc()
            registry.counter(
                "repro_cube_lemmas_shared_total",
                "Lemmas exchanged between cube workers",
            ).inc(report.lemmas_shared)
        return report

    if cube_set.trivial is not None:
        return finish(SolverResult(status=cube_set.trivial,
                                   model=cube_set.model))
    if not cube_set.cubes:
        # Every leaf refuted during cutting: the partition is closed.
        return finish(SolverResult(status=UNSAT))

    if workers == 0:
        return _conquer_inprocess(
            circuit, objectives, cube_set, base_options, correlations,
            limits, deadline, outcomes, tracer, finish,
            checkpointer=checkpointer, seed_pool=seed_pool)
    return _conquer_workers(
        circuit, objectives, cube_set, kind, preset_name, options, seed,
        correlations, limits, deadline, mem_limit_mb, grace_seconds,
        max_retries, certify, share_lemmas, faults, start_method,
        outcomes, report, tracer, finish, backend=backend,
        checkpointer=checkpointer, seed_pool=seed_pool)


# ----------------------------------------------------------------------
# In-process conquest (workers == 0)
# ----------------------------------------------------------------------

def _conquer_inprocess(circuit, objectives, cube_set, base_options,
                       correlations, limits, deadline, outcomes, tracer,
                       finish, checkpointer=None,
                       seed_pool=None) -> CubeReport:
    """One shared engine, cubes in sequence: the learned-clause database
    *is* the sharing bus, and core pruning works exactly as in the
    distributed mode."""
    solver = CircuitSolver(circuit, base_options)
    solver.correlations = correlations  # skip the second simulation pass
    if seed_pool:
        from .sharing import inject_csat_lemmas
        inject_csat_lemmas(solver.engine, seed_pool)
    if checkpointer is not None:
        from .sharing import collect_csat_lemmas
        # Between cubes the engine sits at decision level 0, so its root
        # units + learned binaries are exactly the resumable pool.
        checkpointer.lemmas_fn = lambda: collect_csat_lemmas(solver.engine)
    merged = SolverStats()
    sat_result: Optional[SolverResult] = None
    unknown = False
    pending = deque(cube_set.cubes)
    while pending:
        cube = pending.popleft()
        outcome = outcomes[cube.index]
        if outcome.status == PRUNED:
            continue
        remaining = (deadline - time.perf_counter()
                     if deadline is not None else None)
        if remaining is not None and remaining <= 0:
            unknown = True
            break
        if tracer is not None:
            tracer.emit("cube_start", cube=cube.index,
                        literals=len(cube.literals), attempt=0, inprocess=True)
        result = solver.solve(objectives=objectives + list(cube.literals),
                              limits=_per_cube_limits(limits, remaining))
        outcome.seconds = result.time_seconds
        outcome.attempts = 1
        outcome.status = result.status
        merged.merge(result.stats)
        if tracer is not None:
            tracer.emit("cube_result", cube=cube.index, status=result.status,
                        seconds=round(result.time_seconds, 6),
                        core=len(result.core) if result.core else None)
        if checkpointer is not None:
            checkpointer.completed()
        if result.status == SAT:
            sat_result = result
            break
        if result.status == UNKNOWN:
            unknown = True
            if result.interrupted:
                break
            continue
        core_cube = core_cube_literals(result.core, cube.literals)
        outcome.core_size = None if core_cube is None else len(core_cube)
        if core_cube is not None:
            if not core_cube:
                # Refutation independent of this cube: instance UNSAT.
                for other in pending:
                    _mark_pruned(outcomes[other.index], cube.index, tracer)
                pending.clear()
                break
            for other in list(pending):
                if prunes(core_cube, other.literals):
                    _mark_pruned(outcomes[other.index], cube.index, tracer)
    if sat_result is not None:
        sat_result.stats = merged
        return finish(sat_result)
    if unknown or any(o.status not in _CLOSED for o in outcomes.values()):
        return finish(SolverResult(status=UNKNOWN, stats=merged))
    return finish(SolverResult(status=UNSAT, stats=merged))


def _mark_pruned(outcome: CubeOutcome, by: int, tracer) -> None:
    outcome.status = PRUNED
    outcome.pruned_by = by
    if tracer is not None:
        tracer.emit("cube_prune", cube=outcome.index, by=by)


# ----------------------------------------------------------------------
# Distributed conquest (workers >= 1)
# ----------------------------------------------------------------------

def _conquer_workers(circuit, objectives, cube_set, kind, preset_name,
                     options, seed, correlations, limits, deadline,
                     mem_limit_mb, grace_seconds, max_retries, certify,
                     share_lemmas, faults, start_method, outcomes, report,
                     tracer, finish, backend="legacy", checkpointer=None,
                     seed_pool=None) -> CubeReport:
    knowledge = SharedKnowledge(classes=serialize_classes(correlations))
    if seed_pool:
        # Re-injected checkpoint pool: already counted as shared by the
        # run that earned it, so it seeds workers without inflating
        # this run's lemmas_shared.
        knowledge.absorb(seed_pool)
    if checkpointer is not None:
        checkpointer.lemmas_fn = \
            lambda: [list(c) for c in knowledge.lemmas]
    pending = deque((cube, 0) for cube in cube_set.cubes)
    active: List[WorkerHandle] = []
    # Workers whose last cube answered cleanly, warm for the next one.
    # Circuit, objectives and memory cap are fixed for this call.
    idle: List[WorkerHandle] = []
    failures: List[WorkerFailure] = []
    merged = SolverStats()
    win_result: Optional[SolverResult] = None
    job_index = 0      # per dispatched job: what FaultPlan indices count
    workers = report.workers

    def remaining() -> Optional[float]:
        if deadline is None:
            return None
        return deadline - time.perf_counter()

    def spawn_next() -> bool:
        nonlocal job_index
        left = remaining()
        if left is not None and left <= 0:
            return False
        cube, attempt = pending.popleft()
        if outcomes[cube.index].status == PRUNED:
            return True  # pruned while queued: nothing to launch
        overrides: Dict[str, Any] = {}
        seed_classes = (knowledge.classes if kind == KIND_CSAT else None)
        if attempt and kind == KIND_CSAT:
            # Retry-with-reseed (portfolio policy): drop the seeded
            # correlations so the worker rediscovers with a shifted seed —
            # a crash tied to the shared state is not replayed verbatim.
            overrides["sim_seed"] = seed + RESEED_STRIDE * attempt
            seed_classes = None
        job = WorkerJob(
            circuit=circuit, name="cube-{}".format(cube.index), kind=kind,
            preset_name=preset_name, backend=backend,
            options=options, overrides=overrides,
            objectives=list(objectives),
            limits=_per_cube_limits(limits, left),
            mem_limit_mb=mem_limit_mb, fault=faults.fault_for(job_index),
            assumptions=list(cube.literals), seed_classes=seed_classes,
            seed_lemmas=knowledge.snapshot() if share_lemmas else None,
            export_lemmas=share_lemmas)
        handle = start_job(job, wall_seconds=left,
                           grace_seconds=grace_seconds, index=job_index,
                           tracer=tracer, start_method=start_method,
                           reuse=idle.pop() if idle else None)
        handle.cube = cube
        handle.attempt = attempt
        active.append(handle)
        job_index += 1
        if tracer is not None:
            tracer.emit("cube_start", cube=cube.index,
                        literals=len(cube.literals), attempt=attempt,
                        lemmas_seeded=len(job.seed_lemmas or ()))
        return True

    def absorb_unsat(handle: WorkerHandle,
                     result: SolverResult, lemmas) -> Optional[SolverResult]:
        """Record an UNSAT cube; returns an UNSAT instance result when the
        core refutes the objectives outright."""
        cube = handle.cube
        outcome = outcomes[cube.index]
        outcome.status = UNSAT
        if share_lemmas:
            new = knowledge.absorb(lemmas)
            outcome.lemmas_exported = new
            report.lemmas_shared += new
        core_cube = core_cube_literals(result.core, cube.literals)
        outcome.core_size = None if core_cube is None else len(core_cube)
        if core_cube is None:
            return None
        if not core_cube:
            return SolverResult(status=UNSAT)
        for other, _att in pending:
            other_out = outcomes[other.index]
            if other_out.status != PRUNED \
                    and prunes(core_cube, other.literals):
                _mark_pruned(other_out, cube.index, tracer)
        return None

    try:
        while win_result is None and (pending or active):
            while pending and len(active) < workers:
                if not spawn_next():
                    break
            if not active:
                break  # budget exhausted (or everything left was pruned)
            now = time.perf_counter()
            timeout = 0.25
            for handle in active:
                if handle.deadline is not None:
                    timeout = min(timeout, handle.deadline - now)
            import multiprocessing.connection as mpc
            mpc.wait([h.conn for h in active], timeout=max(0.0, timeout))

            still_active: List[WorkerHandle] = []
            for handle in active:
                done = handle.expired() or not handle.proc.is_alive()
                if not done:
                    try:
                        done = handle.conn.poll(0)
                    except (OSError, ValueError):
                        done = True
                if not done:
                    still_active.append(handle)
                    continue
                outcome = handle.reap(certify=certify, tracer=tracer,
                                      keep=True)
                if handle.idle:
                    idle.append(handle)
                cube_out = outcomes[handle.cube.index]
                cube_out.attempts = handle.attempt + 1
                cube_out.seconds += outcome.seconds
                terminal = True
                if outcome.ok:
                    result = outcome.result
                    cube_out.status = result.status
                    merged.merge(result.stats)
                    if tracer is not None:
                        tracer.emit("cube_result", cube=handle.cube.index,
                                    status=result.status,
                                    seconds=round(outcome.seconds, 6),
                                    core=(len(result.core)
                                          if result.core else None))
                    if result.status == SAT:
                        win_result = result
                    elif result.status == UNSAT:
                        instance_unsat = absorb_unsat(handle, result,
                                                      outcome.lemmas)
                        if instance_unsat is not None:
                            win_result = instance_unsat
                    # UNKNOWN: recorded; the run can no longer prove UNSAT
                    # but siblings may still find SAT.
                else:
                    failure = outcome.failure
                    failures.append(failure)
                    cube_out.status = failure.kind
                    cube_out.detail = failure.detail
                    if share_lemmas and outcome.lemmas:
                        # Salvaged from a dying worker (TIMEOUT/MEMOUT
                        # flush): the clauses are implied by
                        # circuit ∧ objectives, so retries and sibling
                        # cubes can start warm from them.
                        new = knowledge.absorb(outcome.lemmas)
                        cube_out.lemmas_exported += new
                        report.lemmas_shared += new
                    if tracer is not None:
                        tracer.emit("cube_result", cube=handle.cube.index,
                                    status=failure.kind,
                                    seconds=round(outcome.seconds, 6),
                                    salvaged=len(outcome.lemmas or ()))
                    left = remaining()
                    if (failure.kind in RETRYABLE
                            and handle.attempt < max_retries
                            and (left is None or left > 0)):
                        if tracer is not None:
                            tracer.emit("worker_retry", engine=failure.engine,
                                        attempt=handle.attempt + 1,
                                        after=failure.kind)
                        registry = default_registry()
                        if registry is not None:
                            registry.counter(
                                "repro_cube_retries_total",
                                "Cube worker attempts requeued after a "
                                "retryable failure",
                                labelnames=("after",),
                            ).labels(after=failure.kind).inc()
                        pending.appendleft((handle.cube, handle.attempt + 1))
                        terminal = False
                if terminal and checkpointer is not None:
                    checkpointer.completed()
            active = still_active
            if win_result is not None:
                for handle in active:
                    handle.kill(tracer=tracer, reason="sibling-answered")
                    handle.reap(certify="off")
                active = []
    finally:
        for handle in active:
            handle.kill(tracer=tracer, reason="shutdown")
            handle.reap(certify="off")
        for handle in idle:
            handle.close()

    failure_dicts = [f.as_dict() for f in failures]
    if win_result is not None:
        win_result.stats = merged
        win_result.failures = failure_dicts
        return finish(win_result)
    if all(outcomes[c.index].status in _CLOSED for c in cube_set.cubes):
        return finish(SolverResult(status=UNSAT, stats=merged,
                                   failures=failure_dicts))
    return finish(SolverResult(status=UNKNOWN, stats=merged,
                               failures=failure_dicts))
