"""Common result and statistics types shared by both solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


@dataclass
class SolverStats:
    """Search-effort counters.

    Wall time on 2026 Python is not comparable to the paper's 2003 C++ on a
    Pentium-3, so the benchmark harness reports these counters alongside
    time; relative comparisons between solver configurations use both.
    """

    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    learned_clauses: int = 0
    learned_literals: int = 0
    deleted_clauses: int = 0
    restarts: int = 0
    max_decision_level: int = 0
    # Circuit-solver extras.
    implications: int = 0          # gate-level implications (circuit BCP)
    jnode_decisions: int = 0
    correlation_decisions: int = 0
    subproblems_solved: int = 0    # explicit learning
    subproblems_unsat: int = 0
    subproblem_conflicts: int = 0

    #: Fields that merge by maximum rather than by sum.
    _MAX_FIELDS = ("max_decision_level",)

    def merge(self, other: "SolverStats") -> None:
        """Accumulate another stats block into this one (max for levels).

        Iterates the dataclass fields so a counter added later can never be
        silently dropped — only genuinely max-like fields need registering
        in ``_MAX_FIELDS``.
        """
        mine, theirs = self.__dict__, other.__dict__
        for name in _SUMMED_FIELDS:
            mine[name] += theirs[name]
        for name in self._MAX_FIELDS:
            mine[name] = max(mine[name], theirs[name])

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)

    def copy(self) -> "SolverStats":
        return SolverStats(**self.__dict__)

    def delta_since(self, before: "SolverStats") -> "SolverStats":
        """Counters accumulated since ``before`` (a prior copy of self)."""
        mine, old = self.__dict__, before.__dict__
        delta = {name: mine[name] - old[name] for name in _SUMMED_FIELDS}
        for name in self._MAX_FIELDS:
            delta[name] = mine[name]
        return SolverStats(**delta)


#: The summed counters of :class:`SolverStats`, derived once from its
#: dataclass fields (``merge`` and ``delta_since`` run once per solve).
_SUMMED_FIELDS = tuple(f.name for f in fields(SolverStats)
                       if f.name not in SolverStats._MAX_FIELDS)


@dataclass
class SolverResult:
    """Outcome of a solve() call.

    ``status`` is one of :data:`SAT`, :data:`UNSAT`, :data:`UNKNOWN` (budget
    exhausted).  For SAT answers ``model`` maps variables (CNF solver) or
    node ids (circuit solver) to booleans for everything assigned; callers
    may complete unassigned inputs arbitrarily.
    """

    status: str
    model: Optional[Dict[int, bool]] = None
    stats: SolverStats = field(default_factory=SolverStats)
    time_seconds: float = 0.0
    sim_seconds: float = 0.0  # correlation-discovery time (reported separately,
    #                           as the paper's "Simulation" columns do)
    #: Wall time split by phase (bcp / analyze / clause_db / decision /
    #: simulation / other), populated when phase timers are enabled
    #: (``SolverOptions.phase_timers`` or any attached tracer).  Empty dict
    #: otherwise.  See repro.obs.timers.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Which engine configuration produced this answer (portfolio runs set
    #: it to the winning config's name; single-engine runs may leave None).
    engine: Optional[str] = None
    #: True when the solve was cut short by KeyboardInterrupt — the status
    #: is UNKNOWN and the stats are the partial effort up to the interrupt.
    interrupted: bool = False
    #: Failure provenance: one dict per isolated worker that failed on the
    #: way to this result (``WorkerFailure.as_dict()`` records).  Empty for
    #: in-process solves.
    failures: List[Dict[str, Any]] = field(default_factory=list)
    #: Failed-assumption core: for an UNSAT answer to a solve *under
    #: assumptions*, the subset of the assumption literals the refutation
    #: actually depends on (MiniSat's analyzeFinal).  ``[]`` means the
    #: instance is UNSAT regardless of the assumptions; ``None`` for SAT /
    #: UNKNOWN answers or engines that do not extract cores.  Literals are
    #: in the caller's encoding (circuit literals for the circuit engine,
    #: DIMACS for the CNF solver).
    core: Optional[List[int]] = None

    @property
    def is_sat(self) -> bool:
        return self.status == SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == UNSAT

    @property
    def solve_seconds(self) -> float:
        """Search time excluding correlation discovery (the paper reports
        the two separately)."""
        return max(0.0, self.time_seconds - self.sim_seconds)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (no model values, only the model's size) —
        the one serialization used by cli/fuzz/bench alike."""
        return {
            "status": self.status,
            "model_size": len(self.model) if self.model else 0,
            "time_seconds": self.time_seconds,
            "sim_seconds": self.sim_seconds,
            "solve_seconds": self.solve_seconds,
            "phase_seconds": dict(self.phase_seconds),
            "stats": self.stats.as_dict(),
            "engine": self.engine,
            "interrupted": self.interrupted,
            "failures": [dict(f) for f in self.failures],
            "core": list(self.core) if self.core is not None else None,
        }

    def __repr__(self) -> str:
        return ("SolverResult({}, {:.3f}s, decisions={}, conflicts={})"
                .format(self.status, self.time_seconds, self.stats.decisions,
                        self.stats.conflicts))


@dataclass
class Limits:
    """Resource budget for one solve() call.

    ``None`` means unlimited.  When a budget is hit the solver returns a
    result with status :data:`UNKNOWN` (mirroring the paper's 7200-second
    aborts, marked ``*`` in its tables).

    A budget of zero or less is *already exhausted*: every engine returns
    :data:`UNKNOWN` immediately without searching (see
    :meth:`exhausted_on_entry`), so ``Limits(max_seconds=0)`` behaves
    identically everywhere instead of depending on each engine's check
    cadence.

    These limits are *cooperative* — checked inside the search loop, so a
    pathological single step can overrun them.  For hard enforcement
    (watchdog kill + memory cap) run the solve under
    :mod:`repro.runtime`.
    """

    max_conflicts: Optional[int] = None
    max_decisions: Optional[int] = None
    max_seconds: Optional[float] = None

    def validate(self) -> "Limits":
        """Type/value-check the budgets; returns self for chaining.

        Raises :class:`~repro.errors.SolverError` on non-numeric, boolean,
        or NaN budgets.  Zero/negative budgets are *legal* (they mean
        "already exhausted"); use :meth:`exhausted_on_entry` to test.
        Called at every solve entry point (both engines, the circuit
        orchestrator, the supervisor, and the CLI).
        """
        from .errors import SolverError
        for name in ("max_conflicts", "max_decisions"):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise SolverError("{} must be an int or None, got {!r}"
                                  .format(name, value))
        seconds = self.max_seconds
        if seconds is not None:
            if isinstance(seconds, bool) \
                    or not isinstance(seconds, (int, float)):
                raise SolverError("max_seconds must be a number or None, "
                                  "got {!r}".format(seconds))
            if math.isnan(seconds):
                raise SolverError("max_seconds must not be NaN")
        return self

    def exhausted_on_entry(self) -> bool:
        """True when any budget is zero or negative — the solve must
        return UNKNOWN immediately, before any search step."""
        return any(value is not None and value <= 0
                   for value in (self.max_conflicts, self.max_decisions,
                                 self.max_seconds))
