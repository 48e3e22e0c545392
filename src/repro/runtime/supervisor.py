"""Supervisor: run one solve in an isolated subprocess under hard limits.

The cooperative :class:`~repro.result.Limits` budgets are checked inside
the search loop, so a pathological BCP chain, a deep simulation round, or
an OOM blows straight past them.  The supervisor adds *hard* enforcement:

* **wall-clock watchdog** — the worker is SIGTERMed at its deadline and
  SIGKILLed ``grace_seconds`` later if it ignores the polite kill;
* **memory cap** — ``resource.setrlimit(RLIMIT_AS)`` inside the worker,
  so an allocation past the cap fails in the *worker*, not the parent;
* **crash containment** — a segfault, OOM kill, hang, or uncaught
  exception surfaces as a structured :class:`~repro.errors.WorkerFailure`
  (TIMEOUT / MEMOUT / CRASHED / CORRUPT_ANSWER / LOST), never as a
  traceback in the supervising process;
* **boundary certification** — answers crossing the process boundary are
  re-certified via :mod:`repro.verify.certify`, so a corrupted result
  downgrades to a CORRUPT_ANSWER failure instead of a wrong answer.

A worker that answered cleanly stays warm: :meth:`WorkerHandle.assign`
hands it the next job, and :class:`WorkerSlot` keeps one warm worker for
an owner that runs jobs one after another.  Any failure, certification
defect or kill retires the worker.

Worker lifecycle events (``worker_spawn`` / ``worker_result`` /
``worker_fail`` / ``worker_kill``) are emitted through any
:class:`repro.obs.Tracer` handed in — from the parent process only.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import tempfile
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import (CORRUPT_ANSWER, CRASHED, LOST, MEMOUT, TIMEOUT,
                      WorkerFailure)
from ..obs.context import SpanContext, context_of
from ..obs.metrics import (MEMORY_BUCKETS, default_registry, observe_solve)
from ..obs.summary import read_trace
from ..result import Limits, SAT, SolverResult, UNSAT
from .worker import WorkerJob, payload_to_result, run_worker

#: Certification levels for answers crossing the worker boundary.
CERTIFY_OFF = "off"      # trust the worker
CERTIFY_SAT = "sat"      # replay SAT models (cheap); accept UNSAT as-is
CERTIFY_FULL = "full"    # also replay UNSAT DRUP proofs (workers collect one)
CERTIFY_LEVELS = (CERTIFY_OFF, CERTIFY_SAT, CERTIFY_FULL)


def _context(start_method: Optional[str] = None):
    """Fork when available (fast, no job pickling); spawn otherwise."""
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
    return multiprocessing.get_context(start_method)


@dataclass
class WorkerOutcome:
    """What one isolated worker run produced: a result XOR a failure."""

    engine: str
    result: Optional[SolverResult] = None
    failure: Optional[WorkerFailure] = None
    seconds: float = 0.0
    #: Shareable lemmas exported by the worker (cube jobs with
    #: ``export_lemmas``); None otherwise.
    lemmas: Optional[list] = None
    #: Worker's self-reported peak RSS in MB (None when unavailable).
    maxrss_mb: Optional[float] = None
    #: The worker's raw result payload (primitives only).  Job kinds
    #: whose product is more than a SolverResult — a sweep's reduced
    #: circuit and fact export — read their extra keys from here.
    payload: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.failure is None and self.result is not None

    @property
    def decisive(self) -> bool:
        """A certified SAT/UNSAT answer (what a portfolio race is for)."""
        return self.ok and self.result.status in (SAT, UNSAT)

    def as_dict(self) -> dict:
        """JSON-ready summary (used by serving payloads and reports)."""
        return {
            "engine": self.engine,
            "seconds": round(self.seconds, 6),
            "result": self.result.as_dict() if self.result else None,
            "failure": self.failure.as_dict() if self.failure else None,
        }


class WorkerHandle:
    """Parent-side handle on one worker process and the job it runs."""

    def __init__(self, proc, conn, jobs, job: WorkerJob,
                 grace_seconds: float):
        self.proc = proc
        self.conn = conn                  # result pipe (worker -> parent)
        self.jobs = jobs                  # job pipe (parent -> worker)
        self.grace_seconds = grace_seconds
        #: RLIMIT_AS binds the whole process, so a worker only takes
        #: jobs with the cap it was spawned under.
        self.mem_limit_mb = job.mem_limit_mb
        self.idle = False                 # answered; waits for a job
        self.job = job
        self.index = 0
        self.started = time.perf_counter()
        self.deadline: Optional[float] = None   # absolute perf_counter
        self.killed = False               # we sent SIGTERM/SIGKILL
        self.span: Optional[SpanContext] = None  # worker span of this job
        self.spawn_t = 0.0                # parent-tracer time at dispatch

    def _begin(self, job: WorkerJob, wall_seconds: Optional[float],
               index: int, tracer, span: Optional[SpanContext],
               spawn_t: float, reused: bool) -> None:
        """Start the clock, the span and the accounting of one job."""
        self.job = job
        self.index = index
        self.started = time.perf_counter()
        self.deadline = (self.started + wall_seconds
                         if wall_seconds is not None else None)
        self.killed = False
        self.span = span
        self.spawn_t = spawn_t
        if tracer is not None:
            tracer.emit("worker_spawn", engine=job.name, index=index,
                        pid=self.proc.pid, wall_seconds=wall_seconds,
                        mem_limit_mb=job.mem_limit_mb, fault=job.fault,
                        reused=reused)
            if span is not None:
                fields = span.as_fields()
                fields.update(name="worker:{}".format(job.name), index=index,
                              pid=self.proc.pid, reused=reused)
                tracer.emit("span_start", **fields)
        registry = default_registry()
        if registry is not None:
            registry.counter("repro_worker_jobs_total",
                             "Jobs run on isolated workers").inc()

    def assign(self, job: WorkerJob, wall_seconds: Optional[float] = None,
               index: int = 0, tracer=None) -> bool:
        """Hand this warm worker its next job.

        Returns False, and retires the worker, unless its last job
        answered cleanly, it is alive, and ``job`` asks for its memory
        cap; the caller then spawns a fresh worker instead.
        """
        if not (self.idle and job.mem_limit_mb == self.mem_limit_mb
                and self.proc.is_alive()):
            self.close()
            return False
        span, spawn_t = _prepare_job(job, wall_seconds, tracer)
        self.idle = False
        try:
            self.jobs.send(job)
        except (OSError, ValueError):
            pass  # died since the check: reap classifies the exit
        self._begin(job, wall_seconds, index, tracer, span, spawn_t,
                    reused=True)
        return True

    def close(self) -> None:
        """Retire the worker: an idle one is asked to exit, anything
        still alive after that is killed.  Idempotent."""
        if self.idle and self.proc.is_alive():
            try:
                self.jobs.send(None)
                self.proc.join(1.0)
            except (OSError, ValueError):
                pass
        self.idle = False
        self._terminate(1.0)
        for conn in (self.conn, self.jobs):
            try:
                conn.close()
            except OSError:
                pass

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (now or time.perf_counter()) >= self.deadline

    def kill(self, tracer=None, reason: str = "deadline") -> None:
        """SIGTERM, wait out the grace period, then SIGKILL."""
        self.killed = True
        if tracer is not None:
            tracer.emit("worker_kill", engine=self.job.name,
                        index=self.index, reason=reason,
                        elapsed=round(self.elapsed, 6))
        self._terminate(self.grace_seconds)

    def _terminate(self, grace: float) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(grace)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(5.0)

    def reap(self, certify: str = CERTIFY_SAT, tracer=None,
             keep: bool = False) -> WorkerOutcome:
        """Collect this job's outcome; call once the worker answered,
        failed, or expired.  With ``keep`` an ``ok`` outcome leaves the
        worker alive and idle for :meth:`assign`; every other outcome
        leaves the process dead and the pipes closed."""
        name = self.job.name
        message = None
        if not self.killed:
            try:
                if self.conn.poll(0):
                    message = self.conn.recv()
            except (EOFError, OSError):
                message = None
        if message is None and self.expired():
            self.kill(tracer=tracer, reason="deadline")
            # Accept a result that raced the watchdog by a hair.
            try:
                if self.conn.poll(0):
                    message = self.conn.recv()
            except (EOFError, OSError):
                message = None
            if message is None:
                return self._finish(WorkerOutcome(
                    name, failure=WorkerFailure(
                        TIMEOUT, "killed after {:.2f}s (budget {:.2f}s, "
                        "grace {:.2f}s)".format(self.elapsed,
                                                self.deadline - self.started,
                                                self.grace_seconds),
                        engine=name, seconds=self.elapsed)), tracer)

        if message is None:
            # No message and not expired: the process must have died.
            # (A warm worker that answered stays alive: watch the pipe.)
            ready = multiprocessing.connection.wait(
                [self.conn, self.proc.sentinel], 0.5)
            if self.proc.sentinel in ready:
                self.proc.join()          # sets the exit code to classify
            try:
                if self.conn.poll(0):
                    message = self.conn.recv()
            except (EOFError, OSError):
                message = None
        if message is None:
            return self._finish(self._classify_exit(), tracer)

        kind, payload = message
        if kind == "failure":
            return self._finish(WorkerOutcome(
                name, failure=WorkerFailure(
                    payload.get("kind", CRASHED),
                    payload.get("detail", ""),
                    engine=name, seconds=self.elapsed)), tracer)
        result = payload_to_result(payload)
        detail = _certify_payload(self.job, result, payload, certify)
        if detail is not None:
            return self._finish(WorkerOutcome(
                name, failure=WorkerFailure(CORRUPT_ANSWER, detail,
                                            engine=name,
                                            seconds=self.elapsed)), tracer)
        return self._finish(WorkerOutcome(name, result=result,
                                          seconds=self.elapsed,
                                          lemmas=payload.get("lemmas"),
                                          maxrss_mb=payload.get("maxrss_mb"),
                                          payload=payload),
                            tracer, keep)

    def _classify_exit(self) -> WorkerOutcome:
        """Worker died without a message: classify from the exit status."""
        name = self.job.name
        code = self.proc.exitcode
        seconds = self.elapsed
        if code is not None and code < 0:
            signum = -code
            if self.killed:
                failure = WorkerFailure(
                    TIMEOUT, "killed by watchdog (signal {})".format(signum),
                    engine=name, seconds=seconds)
            elif signum == signal.SIGKILL:
                # SIGKILL we did not send: the kernel OOM killer.
                failure = WorkerFailure(MEMOUT, "killed by SIGKILL "
                                        "(kernel OOM killer)",
                                        engine=name, seconds=seconds)
            else:
                try:
                    signame = signal.Signals(signum).name
                except ValueError:
                    signame = str(signum)
                failure = WorkerFailure(CRASHED,
                                        "died on signal {}".format(signame),
                                        engine=name, seconds=seconds)
        elif code:
            failure = WorkerFailure(CRASHED, "exit code {}".format(code),
                                    engine=name, seconds=seconds)
        else:
            failure = WorkerFailure(LOST, "worker exited cleanly without "
                                    "delivering a result",
                                    engine=name, seconds=seconds)
        return WorkerOutcome(name, failure=failure, seconds=seconds)

    def _finish(self, outcome: WorkerOutcome, tracer=None,
                keep: bool = False) -> WorkerOutcome:
        outcome.seconds = outcome.seconds or self.elapsed
        # Only a clean answer leaves the worker idle; close() asks an
        # idle worker to exit and kills any other.
        self.idle = outcome.ok and not self.killed
        if not (keep and self.idle):
            self.close()
        if tracer is not None:
            if outcome.ok:
                tracer.emit("worker_result", engine=self.job.name,
                            index=self.index, status=outcome.result.status,
                            seconds=round(outcome.seconds, 6))
            else:
                tracer.emit("worker_fail", engine=self.job.name,
                            index=self.index, failure=outcome.failure.kind,
                            detail=outcome.failure.detail,
                            seconds=round(outcome.seconds, 6))
        self._merge_child_trace(tracer)
        self._read_salvage(outcome, tracer)
        if tracer is not None and self.span is not None:
            status = (outcome.result.status if outcome.ok
                      else outcome.failure.kind)
            tracer.emit("span_end", span=self.span.span_id, status=status,
                        maxrss_mb=outcome.maxrss_mb)
        self._record_metrics(outcome)
        return outcome

    def _read_salvage(self, outcome: WorkerOutcome, tracer=None) -> None:
        """Recover the lemma pool a dying worker flushed (if any).

        Only TIMEOUT/MEMOUT deaths carry a meaningful flush — the worker
        was healthy, just out of budget — and a successful payload already
        ships its lemmas inline.  The file is deleted unconditionally."""
        path = self.job.salvage_path
        if path is None:
            return
        self.job.salvage_path = None      # read exactly once
        try:
            if (outcome.failure is not None
                    and outcome.failure.kind in (TIMEOUT, MEMOUT)
                    and not outcome.lemmas):
                with open(path) as fh:
                    data = json.load(fh)
                lemmas = [[int(l) for l in clause]
                          for clause in (data.get("lemmas") or [])
                          ] if isinstance(data, dict) and data.get("v") == 1 \
                    else []
                if lemmas:
                    outcome.lemmas = lemmas
                    registry = default_registry()
                    if registry is not None:
                        registry.counter(
                            "repro_lemmas_salvaged_total",
                            "Lemmas recovered from workers killed by "
                            "the watchdog or a memory cap",
                        ).inc(len(lemmas))
                    if tracer is not None:
                        tracer.emit("lemmas_salvaged", engine=self.job.name,
                                    index=self.index, count=len(lemmas),
                                    after=outcome.failure.kind)
        except (OSError, ValueError, TypeError):
            pass  # torn/absent flush: salvage is best effort
        finally:
            try:
                os.unlink(path)
            except OSError:
                pass

    def _merge_child_trace(self, tracer) -> None:
        """Fold the worker's own trace file (if any) into the parent
        trace, re-stamped onto the parent tracer's clock, then delete
        it.  A killed worker leaves a torn final line; ``read_trace``
        skips it."""
        path = self.job.trace_path
        if path is None:
            return
        self.job.trace_path = None        # merge exactly once
        if tracer is not None:
            try:
                for record in read_trace(path, skipped=[]):
                    record = dict(record)
                    kind = record.pop("kind", "event")
                    t = record.pop("t", 0.0)
                    if not isinstance(t, (int, float)):
                        t = 0.0
                    tracer.emit(kind, t=t + self.spawn_t, **record)
            except (OSError, ValueError):
                pass  # empty/garbled worker trace: correlation degrades
        try:
            os.unlink(path)
        except OSError:
            pass

    def _record_metrics(self, outcome: WorkerOutcome) -> None:
        registry = default_registry()
        if registry is None:
            return
        registry.histogram(
            "repro_worker_seconds",
            "Wall seconds per isolated worker").observe(outcome.seconds)
        if outcome.maxrss_mb is not None:
            registry.histogram(
                "repro_worker_maxrss_mb",
                "Worker peak RSS (self-reported, MB)",
                buckets=MEMORY_BUCKETS).observe(outcome.maxrss_mb)
        if outcome.ok:
            registry.counter(
                "repro_worker_results_total", "Worker answers by status",
                ("status",)).labels(outcome.result.status).inc()
            # Fold the subprocess engine's effort into the engine
            # families — the worker's own registry dies with it.
            observe_solve(registry, self.job.kind, outcome.result.status,
                          outcome.result.time_seconds or outcome.seconds,
                          outcome.result.stats)
        else:
            registry.counter(
                "repro_worker_failures_total",
                "Worker failures by taxonomy kind",
                ("kind",)).labels(outcome.failure.kind).inc()


def _certify_payload(job: WorkerJob, result: SolverResult, payload: dict,
                     certify: str) -> Optional[str]:
    """Re-certify an answer at the boundary; returns a defect detail or
    None when the answer stands."""
    if certify == CERTIFY_OFF:
        return None
    objectives = payload.get("objectives") or list(job.circuit.outputs)
    if result.status == SAT:
        from ..verify.certify import certify_sat_model
        certificate = certify_sat_model(job.circuit, result.model, objectives)
        return None if certificate.ok else certificate.detail
    if result.status == UNSAT and certify == CERTIFY_FULL:
        from ..proof import ProofLog
        from ..verify.certify import certify_unsat_proof
        steps = payload.get("proof")
        if steps is None:
            return "UNSAT answer carries no proof for full certification"
        certificate = certify_unsat_proof(
            job.circuit, ProofLog(steps=list(steps)), objectives)
        return None if certificate.ok else certificate.detail
    return None


def _prepare_job(job: WorkerJob, wall_seconds: Optional[float],
                 tracer) -> Tuple[Optional[SpanContext], float]:
    """Default the job's cooperative limits and mint its per-job files:
    the worker span's trace file and the lemma salvage file."""
    if job.limits is not None:
        job.limits.validate()
    if wall_seconds is not None and job.limits is None:
        job.limits = Limits(max_seconds=wall_seconds)
    span = None
    spawn_t = 0.0
    parent_ctx = context_of(tracer)
    if tracer is not None and parent_ctx is not None:
        # The caller bound a span context: mint a child span for this
        # job and hand it a private trace file to merge back at reap.
        span = parent_ctx.child()
        fd, trace_path = tempfile.mkstemp(prefix="repro-worker-trace-",
                                          suffix=".jsonl")
        os.close(fd)
        job.trace_path = trace_path
        job.trace_id = span.trace_id
        job.span_id = span.span_id
        job.parent_span = span.parent_id
        spawn_t = tracer.now()
    if job.export_lemmas and job.salvage_path is None:
        # Lemma-exporting jobs get a salvage file: a worker killed by the
        # watchdog (or dying of MemoryError) flushes its pool there so the
        # retry and sibling cubes still inherit what it learned.
        fd, salvage_path = tempfile.mkstemp(prefix="repro-worker-salvage-",
                                            suffix=".json")
        os.close(fd)
        job.salvage_path = salvage_path
    return span, spawn_t


def spawn_worker(job: WorkerJob,
                 wall_seconds: Optional[float] = None,
                 grace_seconds: float = 1.0,
                 index: int = 0,
                 tracer=None,
                 start_method: Optional[str] = None) -> WorkerHandle:
    """Start one isolated worker on ``job``; returns immediately with its
    handle.

    ``wall_seconds`` is the *hard* budget: the watchdog TERMs at the
    deadline and KILLs ``grace_seconds`` later.  The job's cooperative
    ``limits`` default to the same number so a healthy worker returns
    UNKNOWN on its own just before the watchdog would fire.
    """
    span, spawn_t = _prepare_job(job, wall_seconds, tracer)
    ctx = _context(start_method)
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    job_recv, job_send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=run_worker, args=(child_conn, job, job_recv),
                       name="repro-worker-{}-{}".format(index, job.name),
                       daemon=True)
    proc.start()
    child_conn.close()
    job_recv.close()
    handle = WorkerHandle(proc, parent_conn, job_send, job, grace_seconds)
    handle._begin(job, wall_seconds, index, tracer, span, spawn_t,
                  reused=False)
    registry = default_registry()
    if registry is not None:
        registry.counter("repro_worker_spawns_total",
                         "Isolated worker processes spawned").inc()
    return handle


def start_job(job: WorkerJob, wall_seconds: Optional[float] = None,
              grace_seconds: float = 1.0, index: int = 0, tracer=None,
              start_method: Optional[str] = None,
              reuse: Optional[WorkerHandle] = None) -> WorkerHandle:
    """Run ``job`` on the warm worker ``reuse`` when it can take it
    (see :meth:`WorkerHandle.assign`), else on a freshly spawned one."""
    if reuse is not None and reuse.assign(job, wall_seconds, index, tracer):
        return reuse
    return spawn_worker(job, wall_seconds=wall_seconds,
                        grace_seconds=grace_seconds, index=index,
                        tracer=tracer, start_method=start_method)


class WorkerSlot:
    """At most one warm worker, for an owner that runs jobs one at a time.

    :meth:`run` reuses the worker while its jobs answer cleanly under
    one memory cap; the owner retires it with :meth:`close`.
    """

    def __init__(self, grace_seconds: float = 1.0,
                 start_method: Optional[str] = None):
        self.grace_seconds = grace_seconds
        self.start_method = start_method
        self.handle: Optional[WorkerHandle] = None

    def run(self, job: WorkerJob, wall_seconds: Optional[float] = None,
            certify: str = CERTIFY_SAT, tracer=None) -> WorkerOutcome:
        """Run one job to completion under supervision (blocking).

        Never raises for worker misbehaviour — inspect ``outcome.failure``.
        """
        if certify not in CERTIFY_LEVELS:
            raise ValueError("certify must be one of {}".format(
                CERTIFY_LEVELS))
        if certify == CERTIFY_FULL:
            job.collect_proof = True
        root = None
        if tracer is not None and context_of(tracer) is None:
            # No caller-bound span: root the correlation tree here so the
            # worker's merged events still share one trace id.
            root = SpanContext.new_root()
            tracer.context = root
            fields = root.as_fields()
            fields.update(name="supervise", engine=job.name)
            tracer.emit("span_start", **fields)
        handle = self.handle = start_job(
            job, wall_seconds=wall_seconds, grace_seconds=self.grace_seconds,
            tracer=tracer, start_method=self.start_method, reuse=self.handle)
        while True:
            now = time.perf_counter()
            if handle.expired(now):
                break
            timeout = (min(0.25, handle.deadline - now)
                       if handle.deadline is not None else 0.25)
            if handle.conn.poll(max(0.0, timeout)):
                break
            if not handle.proc.is_alive():
                break
        outcome = handle.reap(certify=certify, tracer=tracer, keep=True)
        if not handle.idle:
            self.handle = None
        if root is not None:
            status = (outcome.result.status if outcome.result is not None
                      else (outcome.failure.kind if outcome.failure
                            else "UNKNOWN"))
            tracer.emit("span_end", span=root.span_id, status=status)
        return outcome

    def close(self) -> None:
        """Retire the warm worker, if any."""
        if self.handle is not None:
            self.handle.close()
            self.handle = None


def run_supervised(job: WorkerJob,
                   wall_seconds: Optional[float] = None,
                   grace_seconds: float = 1.0,
                   certify: str = CERTIFY_SAT,
                   tracer=None,
                   start_method: Optional[str] = None) -> WorkerOutcome:
    """Run one job on a fresh worker and retire it (a one-shot
    :class:`WorkerSlot`).

    Never raises for worker misbehaviour — inspect ``outcome.failure``.
    """
    slot = WorkerSlot(grace_seconds=grace_seconds, start_method=start_method)
    try:
        return slot.run(job, wall_seconds=wall_seconds, certify=certify,
                        tracer=tracer)
    finally:
        slot.close()
