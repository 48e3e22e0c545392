"""repro.runtime — fault-tolerant solving: isolated workers, hard limits,
portfolio failover.

The cooperative budgets in :class:`repro.result.Limits` are only checked
inside the search loop; this package adds the *hard* enforcement layer a
production deployment needs:

* :mod:`repro.runtime.worker` — the subprocess side: one
  :class:`WorkerJob` solved under a ``resource.setrlimit`` memory cap,
  reporting a plain-data payload over a pipe;
* :mod:`repro.runtime.supervisor` — the parent side: wall-clock watchdog
  (SIGTERM, then SIGKILL after a grace period), crash containment into
  the :class:`repro.errors.WorkerFailure` taxonomy (TIMEOUT / MEMOUT /
  CRASHED / CORRUPT_ANSWER / LOST), and boundary re-certification of
  answers via :mod:`repro.verify`;
* :mod:`repro.runtime.portfolio` — races or sequences engine configs
  (csat presets, CNF baseline, brute/BDD for tiny cones) under one shared
  deadline, with retry-with-reseed on crash and a graceful-degradation
  ladder that still returns a structured UNKNOWN when everything fails;
* :mod:`repro.runtime.faults` — seeded, deterministic fault injection at
  the worker boundary so every supervisor path is testable in CI.

This package sits *above* the solvers and :mod:`repro.verify` in the
import graph (it spawns them), and below the CLI and benchmark harness.
See ``docs/robustness.md``.
"""

from .faults import FAULT_KINDS, FaultPlan, NO_FAULTS
from .portfolio import (Attempt, EngineSpec, PortfolioReport, RETRYABLE,
                        default_ladder, ladder_from_names, solve_portfolio)
from .supervisor import (CERTIFY_FULL, CERTIFY_LEVELS, CERTIFY_OFF,
                         CERTIFY_SAT, WorkerHandle, WorkerOutcome,
                         WorkerSlot, run_supervised, spawn_worker)
from .worker import WORKER_KINDS, WorkerJob, payload_to_result, run_worker

__all__ = [
    "Attempt", "CERTIFY_FULL", "CERTIFY_LEVELS", "CERTIFY_OFF",
    "CERTIFY_SAT", "EngineSpec", "FAULT_KINDS", "FaultPlan", "NO_FAULTS",
    "PortfolioReport", "RETRYABLE", "WORKER_KINDS", "WorkerHandle",
    "WorkerJob", "WorkerOutcome", "WorkerSlot", "default_ladder",
    "ladder_from_names", "payload_to_result", "run_supervised",
    "run_worker", "solve_portfolio", "spawn_worker",
]
