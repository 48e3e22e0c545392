"""The solve scheduler: an async job queue over isolated runtime workers.

This is the server's engine room.  Requests are admitted (or rejected
*at the door* with a structured reason — never queued to fail later),
fingerprinted, answered from the :class:`~repro.serve.cache.AnswerCache`
when possible, deduplicated against identical in-flight work, and
otherwise queued by priority for a pool of worker threads.  Each worker
thread runs the solve in an **isolated subprocess**, on the one warm
worker its :class:`repro.runtime.supervisor.WorkerSlot` keeps (retired
on any failure), or fans out further via
:func:`repro.cube.solve_cubes` for ``engine="cube"``; so a hanging,
crashing, or memory-bombing solve can never take the server down: it
surfaces as the PR3 failure taxonomy (TIMEOUT / MEMOUT / CRASHED /
CORRUPT_ANSWER / LOST), verbatim, in the job's result payload.

Lifecycle: ``submit()`` returns a :class:`Job` immediately; callers
block on ``job.wait()`` or poll ``job.snapshot()``.  ``close()`` drains
gracefully — no new admissions, queued and running jobs finish — or
cancels the queue when asked to stop fast.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..circuit.netlist import Circuit
from ..errors import SolverError
from ..result import Limits, SAT, UNKNOWN, UNSAT
from ..runtime.supervisor import CERTIFY_LEVELS, CERTIFY_SAT, WorkerSlot
from ..runtime.worker import (KIND_CNF, KIND_CSAT, KIND_SWEEP,
                              WORKER_KINDS, WorkerJob)
from ..durable.journal import (KIND_ADMITTED, KIND_CANCELLED, KIND_FINISHED,
                               KIND_STARTED, answer_digest, replay_journal)
from ..obs.context import child_context, context_of
from ..obs.metrics import default_registry
from ..obs.trace import Tracer
from .cache import AnswerCache, limits_class
from .fingerprint import Fingerprint, bits_to_model, fingerprint, \
    model_to_bits

#: Engines a request may name: the four isolated worker kinds plus
#: cube-and-conquer and SAT-sweeping behind the same endpoint.
ENGINE_CUBE = "cube"
ENGINE_SWEEP = KIND_SWEEP
SERVE_ENGINES = tuple(WORKER_KINDS) + (ENGINE_CUBE, ENGINE_SWEEP)

#: Job states.
QUEUED = "QUEUED"
RUNNING = "RUNNING"
DONE = "DONE"
CANCELLED = "CANCELLED"

#: Structured admission-rejection codes (HTTP-ish semantics: ``queue-full``
#: maps to 503, everything else to 400).
REJECT_BAD_ENGINE = "bad-engine"
REJECT_BAD_LIMITS = "bad-limits"
REJECT_EMPTY_BUDGET = "empty-budget"
REJECT_QUEUE_FULL = "queue-full"
REJECT_DRAINING = "draining"


def input_assignment(circuit: Circuit,
                     model: Optional[Dict[int, bool]]) -> Dict[str, int]:
    """A SAT model's primary-input projection, keyed by PI name (JSON-safe).

    This is the part of a model a client can act on (unassigned inputs
    complete arbitrarily; gate values are implied).
    """
    if not model:
        return {}
    return {circuit.name_of(pi) or "n{}".format(pi):
            int(bool(model.get(pi, False)))
            for pi in circuit.inputs}


class AdmissionError(Exception):
    """A request was refused at the door, with a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message

    def as_dict(self) -> Dict[str, str]:
        return {"code": self.code, "message": self.message}


@dataclass
class JobRequest:
    """One solve request as the scheduler sees it (already parsed).

    ``fp`` may carry a precomputed fingerprint of ``circuit`` (the
    server's parse memo provides one for byte-identical resubmissions);
    when absent the scheduler computes it at admission.
    """

    circuit: Circuit
    engine: str = "csat"
    preset: str = "explicit"
    limits: Optional[Limits] = None
    priority: int = 0
    label: str = "request"
    fault: Optional[str] = None       # deterministic fault injection (tests)
    cube_workers: int = 2
    fp: Optional[Fingerprint] = None
    #: Client-supplied idempotency key: re-submitting the same key never
    #: double-solves (the scheduler returns the original job).  Minted
    #: server-side when absent so every journaled job has one.
    idempotency_key: Optional[str] = None
    #: The submission as re-parsable source (``{"circuit": text,
    #: "format": fmt}`` or ``{"instance": name}``), journaled so a
    #: crashed server can re-admit the job on boot.  Built from the
    #: circuit when absent.
    source: Optional[Dict[str, Any]] = None
    #: Allow the incremental pre-pass (knowledge-store replay) for this
    #: job.  Answers are identical either way — the pre-pass re-proves
    #: everything it uses — so this is a performance escape hatch, not a
    #: correctness knob, and it is not part of the cache key.
    incremental: bool = True


class _JobTracer(Tracer):
    """Tee: append events to the job's buffer and any global tracer."""

    enabled = True

    def __init__(self, job: "Job", downstream=None):
        self._job = job
        self._downstream = downstream

    def emit(self, kind: str, **fields: Any) -> None:
        if self.context is not None and "span" not in fields:
            fields["span"] = self.context.span_id
        self._job.add_event(kind, **fields)
        if self._downstream is not None:
            self._downstream.emit(kind, job=self._job.id, **fields)

    def now(self) -> float:
        return (self._downstream.now()
                if self._downstream is not None else 0.0)


class Job:
    """Parent-side handle on one admitted request."""

    def __init__(self, job_id: str, request: JobRequest, fp: Fingerprint):
        self.id = job_id
        self.request = request
        self.fp = fp
        self.state = QUEUED
        self.result: Optional[Dict[str, Any]] = None
        self.cached = False
        self.deduped = False
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.events: List[Dict[str, Any]] = []
        self._done = threading.Event()

    def add_event(self, kind: str, **fields: Any) -> None:
        record = {"kind": kind}
        record.update(fields)
        self.events.append(record)   # list.append is atomic under the GIL

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; True if it did within timeout."""
        return self._done.wait(timeout)

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def finish(self, result: Dict[str, Any], state: str = DONE) -> None:
        self.result = result
        self.state = state
        self.finished = time.time()
        self._done.set()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view of the job (the server's /result payload)."""
        waited = (self.started or self.finished or time.time()) - self.created
        snap = {
            "job": self.id,
            "label": self.request.label,
            "engine": self.request.engine,
            "key": self.request.idempotency_key,
            "state": self.state,
            "cached": self.cached,
            "deduped": self.deduped,
            "fingerprint": self.fp.as_dict(),
            "queue_seconds": round(max(0.0, waited), 6),
        }
        if self.result is not None:
            snap["result"] = self.result
        return snap


class SolveScheduler:
    """Priority job queue + worker-thread pool + answer cache."""

    def __init__(self,
                 workers: int = 2,
                 cache: Optional[AnswerCache] = None,
                 max_queue: int = 64,
                 mem_limit_mb: Optional[int] = None,
                 grace_seconds: float = 1.0,
                 certify: str = CERTIFY_SAT,
                 max_wall_seconds: Optional[float] = None,
                 tracer=None,
                 journal=None,
                 store=None,
                 incremental: bool = True):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if certify not in CERTIFY_LEVELS:
            raise ValueError("certify must be one of {}".format(
                CERTIFY_LEVELS))
        self.cache = cache if cache is not None else AnswerCache()
        self.max_queue = max_queue
        self.mem_limit_mb = mem_limit_mb
        self.grace_seconds = grace_seconds
        self.certify = certify
        self.max_wall_seconds = max_wall_seconds
        self.tracer = tracer
        self.journal = journal           # durable.journal.Journal or None
        #: Knowledge store (repro.inc.store.KnowledgeStore) shared by
        #: sweep jobs (which fill it) and solve jobs (whose pre-pass
        #: replays it).  The scheduler is its only in-process user, so
        #: one coarse lock around pre-pass and absorption suffices.
        self.store = store
        self.incremental = incremental
        self._store_lock = threading.Lock()
        self._lock = threading.Lock()
        self._idempotency: Dict[str, Job] = {}
        self._work = threading.Condition(self._lock)
        self._queue: List[Any] = []          # heap of (-prio, seq, job)
        self._seq = itertools.count()
        self._ids = itertools.count(1)
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, Job] = {}  # dedup key -> primary job
        self._followers: Dict[str, List[Job]] = {}
        self._running = 0
        self._closed = False
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self._threads = [
            threading.Thread(target=self._worker_loop, daemon=True,
                             name="serve-worker-{}".format(i))
            for i in range(workers)]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def _reject(self, code: str, message: str) -> AdmissionError:
        """Count a door rejection and build the error for the caller."""
        self.rejected += 1
        registry = default_registry()
        if registry is not None:
            registry.counter("repro_serve_rejections_total",
                             "Requests rejected at admission, by code",
                             labelnames=("code",)).labels(code).inc()
        return AdmissionError(code, message)

    # ------------------------------------------------------------------
    # Journal hooks (no-ops without a journal)
    # ------------------------------------------------------------------

    def _journal_append(self, kind: str, **fields: Any) -> None:
        if self.journal is None:
            return
        try:
            self.journal.append(kind, **fields)
        except OSError:
            pass  # a full disk degrades durability, never availability

    def _admitted_record(self, job: Job) -> Optional[Dict[str, Any]]:
        """The journal fields that let a crashed server re-admit this job."""
        if self.journal is None:
            return None
        request = job.request
        source = request.source
        if source is None:
            from ..circuit.bench_io import write_bench
            source = {"circuit": write_bench(request.circuit),
                      "format": "bench"}
        limits = None
        if request.limits is not None:
            limits = {k: v for k, v in (
                ("max_seconds", request.limits.max_seconds),
                ("max_conflicts", request.limits.max_conflicts),
                ("max_decisions", request.limits.max_decisions))
                if v is not None}
        return {"key": request.idempotency_key, "job": job.id,
                "digest": job.fp.digest,
                "limits_class": limits_class(request.limits),
                "engine": request.engine, "preset": request.preset,
                "priority": request.priority, "label": request.label,
                "cube_workers": request.cube_workers,
                "incremental": request.incremental,
                "limits": limits, "source": source}

    def _journal_finish(self, job: Job, payload: Dict[str, Any],
                        model_bits: Optional[List[int]] = None,
                        deduped_into: Optional[str] = None) -> None:
        """Durably record a completion *before* it becomes visible."""
        if self.journal is None:
            return
        status = payload["status"]
        record: Dict[str, Any] = {
            "key": job.request.idempotency_key, "job": job.id,
            # The *request* engine: it is part of the cache key; the
            # engine that actually answered lives in the provenance.
            "status": status, "engine": job.request.engine,
            "digest": job.fp.digest,
            "limits_class": limits_class(job.request.limits),
            "cached": bool(payload.get("cached")), "deduped": job.deduped}
        if deduped_into is not None:
            record["deduped_into"] = deduped_into
        if status in (SAT, UNSAT):
            record["model_bits"] = model_bits
            record["answer"] = answer_digest(status, model_bits)
            record["provenance"] = {
                "engine": payload.get("engine"),
                "label": job.request.label,
                "time_seconds": payload.get("time_seconds")}
        self._journal_append(KIND_FINISHED, **record)
        if self.journal.due_for_compaction:
            try:
                state = replay_journal(self.journal.path)
                self.journal.compact(state.live_records())
            except (OSError, ValueError):
                pass

    def submit(self, request: JobRequest) -> Job:
        """Admit one request; raises :class:`AdmissionError` otherwise."""
        registry = default_registry()
        if registry is not None:
            registry.counter("repro_serve_submitted_total",
                             "Requests presented at the door").inc()
        if request.idempotency_key:
            # Idempotent re-submission: the same key never double-solves,
            # whatever state the original job is in.
            with self._lock:
                existing = self._idempotency.get(request.idempotency_key)
            if existing is not None:
                return existing
        if request.engine not in SERVE_ENGINES:
            raise self._reject(REJECT_BAD_ENGINE,
                               "unknown engine {!r}; known: {}".format(
                                   request.engine,
                                   ", ".join(SERVE_ENGINES)))
        if request.limits is not None:
            try:
                request.limits.validate()
            except SolverError as exc:
                raise self._reject(REJECT_BAD_LIMITS, str(exc))
            if request.limits.exhausted_on_entry():
                raise self._reject(
                    REJECT_EMPTY_BUDGET,
                    "budget is zero or negative — the solve could never "
                    "start; fix the limits instead of queueing it")
        fp = request.fp if request.fp is not None \
            else fingerprint(request.circuit)
        key = "{}|{}|{}".format(fp.digest, limits_class(request.limits),
                                request.engine)
        if not request.idempotency_key:
            # Every journaled job carries a key so crash replay and
            # client retries converge on one identity.
            request.idempotency_key = uuid.uuid4().hex
        with self._lock:
            if self._closed:
                raise self._reject(REJECT_DRAINING,
                                   "server is draining; not accepting "
                                   "new work")
            job = Job("j{}".format(next(self._ids)), request, fp)
            self._jobs[job.id] = job
            self._idempotency[request.idempotency_key] = job
            self.submitted += 1
        job.add_event("job_submit", label=request.label,
                      engine=request.engine, digest=fp.digest,
                      priority=request.priority)
        if self.tracer is not None:
            self.tracer.emit("job_submit", job=job.id, label=request.label,
                             engine=request.engine, digest=fp.digest)

        # 1. Answer cache.
        hit = self.cache.lookup(request.circuit, fp, request.limits,
                                request.engine)
        if registry is not None:
            registry.counter("repro_serve_cache_lookups_total",
                             "Answer-cache lookups at admission",
                             labelnames=("outcome",)).labels(
                                 "hit" if hit is not None else "miss").inc()
        if hit is not None:
            job.cached = True
            job.add_event("cache_hit", digest=fp.digest,
                          status=hit["status"])
            if self.tracer is not None:
                self.tracer.emit("cache_hit", job=job.id, digest=fp.digest,
                                 status=hit["status"])
            payload = self._result_payload(job, hit, cached=True)
            record = self._admitted_record(job)
            if record is not None:
                self._journal_append(KIND_ADMITTED, **record)
            bits = (model_to_bits(fp, hit.get("model"))
                    if hit["status"] == SAT else None)
            self._journal_finish(job, payload, bits)
            job.finish(payload)
            with self._lock:
                self.completed += 1
            return job

        # The admitted record is built outside the lock (it may serialize
        # the circuit) but appended inside it, so the journal order agrees
        # with the admission order.
        record = self._admitted_record(job)

        # 2. In-flight deduplication: identical work shares one solve.
        with self._lock:
            primary = self._inflight.get(key)
            if primary is not None and not primary.done:
                job.deduped = True
                self._followers.setdefault(key, []).append(job)
                job.add_event("job_dedup", follows=primary.id)
                if registry is not None:
                    registry.counter(
                        "repro_serve_dedup_total",
                        "Jobs folded into identical in-flight work").inc()
                if record is not None:
                    self._journal_append(KIND_ADMITTED, **record)
                return job
            # 3. Admission control: bounded queue.
            depth = len(self._queue)
            if depth >= self.max_queue:
                del self._jobs[job.id]
                self._idempotency.pop(request.idempotency_key, None)
                raise self._reject(
                    REJECT_QUEUE_FULL,
                    "queue is full ({} jobs); retry later".format(depth))
            self._inflight[key] = job
            job._dedup_key = key
            if record is not None:
                self._journal_append(KIND_ADMITTED, **record)
            heapq.heappush(self._queue,
                           (-request.priority, next(self._seq), job))
            if registry is not None:
                registry.gauge("repro_serve_queue_depth",
                               "Jobs queued, not yet running").set(
                                   len(self._queue))
            self._work.notify()
        return job

    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    # ------------------------------------------------------------------
    # Worker threads
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        # This thread's warm worker; retired when the thread exits.
        slot = WorkerSlot(grace_seconds=self.grace_seconds)
        try:
            self._serve_jobs(slot)
        finally:
            slot.close()

    def _serve_jobs(self, slot: WorkerSlot) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._work.wait(0.2)
                if not self._queue:
                    if self._closed:
                        return
                    continue
                _, _, job = heapq.heappop(self._queue)
                self._running += 1
                registry = default_registry()
                if registry is not None:
                    registry.gauge("repro_serve_queue_depth",
                                   "Jobs queued, not yet running").set(
                                       len(self._queue))
            try:
                self._execute(job, slot)
            finally:
                with self._lock:
                    self._running -= 1
                    self.completed += 1
                    self._work.notify_all()

    def _execute(self, job: Job, slot: WorkerSlot) -> None:
        request = job.request
        job.state = RUNNING
        job.started = time.time()
        self._journal_append(KIND_STARTED, key=request.idempotency_key,
                             job=job.id)
        job.add_event("job_start", engine=request.engine)
        if self.tracer is not None:
            self.tracer.emit("job_start", job=job.id, engine=request.engine)
        tracer = _JobTracer(job, self.tracer)
        span = None
        if self.tracer is not None:
            # Root a job span (child of any caller-bound span on the
            # global tracer) so worker/cube sub-spans correlate to it.
            span = child_context(context_of(self.tracer))
            tracer.context = span
            fields = span.as_fields()
            fields.update(name="job:{}".format(job.id),
                          engine=request.engine, label=request.label)
            tracer.emit("span_start", **fields)
        try:
            payload = self._solve(job, tracer, slot)
        except Exception as exc:  # noqa: BLE001 — the server must survive
            payload = {"status": UNKNOWN, "model_size": 0, "engine": None,
                       "cached": False,
                       "failures": [{"kind": "CRASHED",
                                     "detail": "{}: {}".format(
                                         type(exc).__name__, exc),
                                     "engine": request.engine,
                                     "seconds": 0.0}]}
        model = payload.pop("_model", None)
        if payload["status"] == SAT:
            payload["model_inputs"] = input_assignment(
                request.circuit, model)
        if payload["status"] in (SAT, UNSAT):
            self.cache.store(
                job.fp, request.limits, request.engine, payload["status"],
                model=model,
                provenance={"engine": payload.get("engine"),
                            "label": request.label,
                            "time_seconds": payload.get("time_seconds"),
                            "stats": payload.get("stats")})
        job.add_event("job_done", status=payload["status"])
        if self.tracer is not None:
            self.tracer.emit("job_done", job=job.id,
                             status=payload["status"])
        if span is not None:
            tracer.emit("span_end", span=span.span_id,
                        status=payload["status"])
        # Durability barrier: the completion hits the journal (fsynced)
        # before any client — or follower — can observe the result.
        bits = (model_to_bits(job.fp, model)
                if payload["status"] == SAT and model is not None else None)
        self._journal_finish(job, payload, bits)
        self._resolve_followers(job, payload, model)
        job.finish(payload)
        registry = default_registry()
        if registry is not None:
            registry.counter("repro_serve_jobs_total",
                             "Jobs run to completion, by final status",
                             labelnames=("status",)).labels(
                                 payload["status"]).inc()
            if job.started is not None and job.finished is not None:
                registry.histogram(
                    "repro_serve_job_seconds",
                    "Per-job wall time from start to finish",
                    labelnames=("engine",)).labels(
                        request.engine).observe(job.finished - job.started)

    def _wall_seconds(self, limits: Optional[Limits]) -> Optional[float]:
        wall = limits.max_seconds if limits is not None else None
        if self.max_wall_seconds is not None:
            wall = (self.max_wall_seconds if wall is None
                    else min(wall, self.max_wall_seconds))
        return wall

    def _solve(self, job: Job, tracer, slot: WorkerSlot) -> Dict[str, Any]:
        """Run one admitted job to a result payload (worker thread)."""
        request = job.request
        if request.engine == ENGINE_SWEEP:
            return self._run_sweep(job, tracer, slot)
        prepass = self._prepass(job, tracer)
        circuit = prepass.circuit if prepass is not None \
            else request.circuit
        seeds = list(prepass.seed_lemmas) if prepass is not None else None
        payload = self._dispatch(job, tracer, slot, circuit, seeds)
        if prepass is None or payload["status"] != SAT:
            # UNSAT on the pre-passed circuit implies UNSAT on the
            # original: every merge the pre-pass applied was re-proved
            # on this very circuit (see repro.inc.replay).
            return payload
        # A SAT model over the reduced circuit maps back input-for-input
        # (sweeps preserve input order); re-certify against the ORIGINAL
        # circuit before anyone can observe it.  Certification failure
        # means a bug in the incremental layer — degrade honestly by
        # re-solving without it.
        mapped = prepass.map_model(payload.get("_model"))
        from ..verify.certify import certify_sat_model
        certificate = certify_sat_model(request.circuit, mapped,
                                        list(request.circuit.outputs))
        if certificate.ok:
            payload["_model"] = mapped
            return payload
        job.add_event("inc_prepass_discarded", detail=certificate.detail)
        if self.tracer is not None:
            self.tracer.emit("inc_prepass_discarded", job=job.id,
                             detail=certificate.detail)
        return self._dispatch(job, tracer, slot, request.circuit, None)

    def _dispatch(self, job: Job, tracer, slot: WorkerSlot, circuit: Circuit,
                  seed_lemmas) -> Dict[str, Any]:
        """Run the requested engine on ``circuit`` (the original or the
        pre-passed reduction) and return the raw payload."""
        request = job.request
        wall = self._wall_seconds(request.limits)
        if request.engine == ENGINE_CUBE:
            from ..cube import solve_cubes
            report = solve_cubes(
                circuit, workers=request.cube_workers,
                budget=wall, mem_limit_mb=self.mem_limit_mb,
                grace_seconds=self.grace_seconds, certify=self.certify,
                trace=tracer)
            result = report.result
            payload = result.as_dict()
            payload["engine"] = payload.get("engine") or "cube"
            payload["cached"] = False
            payload["_model"] = result.model
            return payload
        worker_job = WorkerJob(
            circuit=circuit,
            name="{}:{}".format(request.engine, request.preset)
                 if request.engine == "csat" else request.engine,
            kind=request.engine, preset_name=request.preset,
            limits=request.limits, mem_limit_mb=self.mem_limit_mb,
            fault=request.fault,
            seed_lemmas=seed_lemmas if request.engine in (KIND_CSAT,
                                                          KIND_CNF)
            else None)
        outcome = slot.run(worker_job, wall_seconds=wall,
                           certify=self.certify, tracer=tracer)
        if outcome.ok:
            payload = outcome.result.as_dict()
            payload["cached"] = False
            payload["_model"] = outcome.result.model
            return payload
        # Structured failure: the taxonomy crosses the protocol verbatim.
        return {"status": UNKNOWN, "model_size": 0,
                "engine": outcome.engine, "cached": False,
                "time_seconds": outcome.seconds,
                "failures": [outcome.failure.as_dict()]}

    # ------------------------------------------------------------------
    # Incremental pre-pass and sweep jobs (repro.inc)
    # ------------------------------------------------------------------

    def _prepass(self, job: Job, tracer):
        """Replay the knowledge store into this query, when eligible.

        Returns a :class:`repro.inc.replay.PrepassOutcome` whose merges
        and lemma seeds were all re-proved on the requesting circuit, or
        None when the pre-pass is off, inapplicable, or found nothing.
        Never raises: an incremental-layer failure must degrade to a
        plain solve, not take the job down.
        """
        request = job.request
        if (self.store is None or not self.incremental
                or not request.incremental or request.fault is not None
                or request.engine not in (KIND_CSAT, KIND_CNF,
                                          ENGINE_CUBE)):
            return None
        try:
            from ..inc.replay import incremental_prepass
            with self._store_lock:
                outcome = incremental_prepass(request.circuit, self.store)
        except Exception as exc:  # noqa: BLE001 — advisory layer only
            job.add_event("inc_prepass_error",
                          detail="{}: {}".format(type(exc).__name__, exc))
            return None
        job.add_event("inc_prepass", **outcome.as_dict())
        if self.tracer is not None:
            self.tracer.emit("inc_prepass", job=job.id,
                             **outcome.as_dict())
        return outcome if outcome.useful else None

    def _run_sweep(self, job: Job, tracer,
                   slot: WorkerSlot) -> Dict[str, Any]:
        """Sweep-as-a-service: reduce the circuit on an isolated worker
        and absorb the proven facts into the knowledge store."""
        request = job.request
        wall = self._wall_seconds(request.limits)
        worker_job = WorkerJob(
            circuit=request.circuit, name=ENGINE_SWEEP, kind=KIND_SWEEP,
            preset_name=request.preset, limits=request.limits,
            mem_limit_mb=self.mem_limit_mb, fault=request.fault)
        outcome = slot.run(worker_job, wall_seconds=wall,
                           certify=self.certify, tracer=tracer)
        if not outcome.ok:
            return {"status": UNKNOWN, "model_size": 0,
                    "engine": outcome.engine, "cached": False,
                    "time_seconds": outcome.seconds,
                    "failures": [outcome.failure.as_dict()]}
        payload = dict(outcome.payload or {})
        for noise in ("model", "proof", "objectives", "core"):
            payload.pop(noise, None)
        payload["cached"] = False
        if self.store is not None:
            try:
                from ..circuit.source import read_circuit_text
                from ..core.sweep import SweepResult
                from ..inc.replay import absorb_sweep
                reduced = read_circuit_text(
                    str(payload.get("sweep_bench") or ""),
                    name=request.label + ".swept", fmt="bench")
                result = SweepResult(
                    circuit=reduced,
                    substitutions=dict(
                        payload.get("sweep_substitutions") or {}),
                    lemmas=[list(c) for c in payload.get("lemmas") or []])
                with self._store_lock:
                    payload["absorbed"] = absorb_sweep(
                        self.store, request.circuit, result)
            except Exception as exc:  # noqa: BLE001 — keep the reduction
                payload["absorbed"] = {
                    "error": "{}: {}".format(type(exc).__name__, exc)}
        # The reduced circuit is the product; lemmas already live in the
        # store and would bloat every /result poll.
        payload.pop("lemmas", None)
        payload.pop("sweep_substitutions", None)
        return payload

    # ------------------------------------------------------------------
    # Dedup resolution
    # ------------------------------------------------------------------

    def _resolve_followers(self, primary: Job, payload: Dict[str, Any],
                           model: Optional[Dict[int, bool]] = None) -> None:
        key = getattr(primary, "_dedup_key", None)
        if key is None:
            return
        with self._lock:
            followers = self._followers.pop(key, [])
            if self._inflight.get(key) is primary:
                del self._inflight[key]
        if not followers:
            return
        bits = (model_to_bits(primary.fp, model)
                if payload["status"] == SAT and model is not None else None)
        for follower in followers:
            shared = dict(payload)
            shared["deduped_into"] = primary.id
            if bits is not None:
                # Same digest, possibly different node numbering: replay
                # the model through the follower's own fingerprint.
                follower_model = bits_to_model(follower.fp, bits)
                from ..verify.certify import certify_sat_model
                certificate = certify_sat_model(
                    follower.request.circuit, follower_model,
                    list(follower.request.circuit.outputs))
                if not certificate.ok:
                    # Should be unreachable (same fingerprint); degrade
                    # honestly rather than serve an uncertified answer.
                    shared = {"status": UNKNOWN, "model_size": 0,
                              "engine": shared.get("engine"),
                              "cached": False,
                              "failures": [{
                                  "kind": "CORRUPT_ANSWER",
                                  "detail": "deduped model failed "
                                            "re-certification: "
                                            + certificate.detail,
                                  "engine": shared.get("engine") or "",
                                  "seconds": 0.0}]}
                else:
                    shared["model_size"] = len(follower_model)
                    shared["model_inputs"] = input_assignment(
                        follower.request.circuit, follower_model)
            follower.add_event("job_done", status=shared["status"],
                               deduped_into=primary.id)
            follower_bits = bits if shared["status"] == SAT else None
            self._journal_finish(follower, shared, follower_bits,
                                 deduped_into=primary.id)
            follower.finish(shared)
            with self._lock:
                self.completed += 1

    def _result_payload(self, job: Job, hit: Dict[str, Any],
                        cached: bool) -> Dict[str, Any]:
        model = hit.get("model")
        provenance = hit.get("provenance") or {}
        payload = {"status": hit["status"],
                   "model_size": len(model) if model else 0,
                   "engine": hit.get("engine"),
                   "cached": cached,
                   "cache_hits": hit.get("cache_hits"),
                   "time_seconds": 0.0,
                   "solved_time_seconds": provenance.get("time_seconds"),
                   "stats": provenance.get("stats"),
                   "failures": []}
        if hit["status"] == SAT:
            payload["model_inputs"] = input_assignment(
                job.request.circuit, model)
        return payload

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {"submitted": self.submitted,
                    "completed": self.completed,
                    "rejected": self.rejected,
                    "queued": len(self._queue),
                    "running": self._running,
                    "workers": len(self._threads),
                    "closed": self._closed,
                    "cache": self.cache.stats()}

    def close(self, drain: bool = True,
              timeout: Optional[float] = None) -> bool:
        """Stop the scheduler.

        ``drain=True`` (graceful): refuse new work, let queued + running
        jobs finish.  ``drain=False``: additionally cancel everything
        still queued (their jobs finish CANCELLED with a structured
        payload).  Returns True once all worker threads exited; each
        closes its :class:`WorkerSlot` on the way out, so then no warm
        worker process is left either.
        """
        with self._lock:
            self._closed = True
            if not drain:
                cancelled = [job for _, _, job in self._queue]
                self._queue.clear()
            else:
                cancelled = []
            self._work.notify_all()
        for job in cancelled:
            key = getattr(job, "_dedup_key", None)
            with self._lock:
                followers = self._followers.pop(key, []) if key else []
                if key and self._inflight.get(key) is job:
                    del self._inflight[key]
            for waiter in [job] + followers:
                self._journal_append(
                    KIND_CANCELLED, key=waiter.request.idempotency_key,
                    job=waiter.id)
                waiter.finish({"status": UNKNOWN, "model_size": 0,
                               "engine": None, "cached": False,
                               "failures": [{"kind": "LOST",
                                             "detail": "cancelled at "
                                                       "shutdown",
                                             "engine": "", "seconds": 0.0}]},
                              state=CANCELLED)
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        ok = True
        for thread in self._threads:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            thread.join(remaining)
            ok = ok and not thread.is_alive()
        if self.journal is not None:
            self.journal.flush()
        return ok
