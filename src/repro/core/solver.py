"""High-level circuit SAT solving: the public face of C-SAT.

:class:`CircuitSolver` ties the pieces together the way the paper's tool
does: read a circuit, (optionally) run random simulation to discover signal
correlations, attach implicit learning, run the explicit incremental
learn-from-conflict phase, then solve the actual objective.  Timing is
reported the way the paper's tables report it: solve time and simulation
time separately.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..circuit.miter import miter
from ..circuit.netlist import Circuit
from ..csat.engine import CSatEngine
from ..csat.explicit import ExplicitReport, run_explicit_learning
from ..csat.implicit import attach_implicit_learning
from ..csat.options import SolverOptions
from ..errors import SolverError
from ..obs import complete_phases
from ..result import Limits, SAT, SolverResult, UNKNOWN, UNSAT
from ..sim.correlation import CorrelationSet, find_correlations


class CircuitSolver:
    """Solve circuit SAT problems with signal-correlation-guided learning.

    Typical use::

        solver = CircuitSolver(circuit, preset("explicit"))
        result = solver.solve()          # asserts every primary output = 1

    Objectives are circuit literals that must be simultaneously true; by
    default every primary output is asserted (the usual miter question).
    """

    def __init__(self, circuit: Circuit,
                 options: Optional[SolverOptions] = None,
                 proof=None):
        self.circuit = circuit
        self.options = options or SolverOptions()
        self.options.validate()
        if self.options.certify and proof is None:
            # Certification of UNSAT answers replays the DRUP log, so one
            # must be collected even when the caller did not ask for it.
            from ..proof import ProofLog
            proof = ProofLog()
        #: Optional repro.proof.ProofLog; see repro.proof for checking.
        self.proof = proof
        if self.options.backend == "kernel":
            # Imported lazily so the legacy path never pays for the kernel
            # package.
            from ..kernel.circuit import KernelEngine
            self.engine = KernelEngine(circuit, self.options, proof=proof)
        else:
            self.engine = CSatEngine(circuit, self.options, proof=proof)
        self.correlations: Optional[CorrelationSet] = None
        self.explicit_report: Optional[ExplicitReport] = None
        self._prepared = False

    @property
    def stats(self):
        """Cumulative engine statistics across all solve calls."""
        return self.engine.stats

    # ------------------------------------------------------------------

    def _discover_correlations(self) -> float:
        """Run random simulation once; returns the time spent."""
        if self.correlations is not None:
            return 0.0
        opts = self.options
        t0 = time.perf_counter()
        self.correlations = find_correlations(
            self.circuit, seed=opts.sim_seed, width=opts.sim_width,
            stall_rounds=opts.sim_stall_rounds, max_rounds=opts.sim_max_rounds,
            max_class_size=opts.max_class_size)
        elapsed = time.perf_counter() - t0
        self.correlations.sim_seconds = elapsed
        if self.engine.tracer is not None:
            self.engine.tracer.emit(
                "phase", phase="simulation", seconds=round(elapsed, 6),
                pairs=len(self.correlations.pair_correlations()),
                constants=len(self.correlations.constant_correlations()))
        return elapsed

    def prepare(self, limits: Optional[Limits] = None) -> float:
        """Run the learning phases (simulation, implicit wiring, explicit
        sub-problems) without solving the objective.  Returns simulation
        seconds.  Called automatically by :meth:`solve`."""
        if self._prepared:
            return 0.0
        self._prepared = True
        opts = self.options
        sim_seconds = 0.0
        if opts.implicit_learning or opts.explicit_learning:
            sim_seconds = self._discover_correlations()
            if opts.implicit_learning:
                attach_implicit_learning(self.engine, self.correlations)
            if opts.explicit_learning:
                deadline = None
                if limits is not None and limits.max_seconds is not None:
                    deadline = time.perf_counter() + limits.max_seconds
                self.explicit_report = run_explicit_learning(
                    self.engine, self.correlations, deadline=deadline)
        return sim_seconds

    def solve(self, objectives: Optional[Sequence[int]] = None,
              limits: Optional[Limits] = None) -> SolverResult:
        """Solve "all ``objectives`` literals true" on the circuit.

        The result's ``time_seconds`` covers the whole call including the
        explicit-learning phase; ``sim_seconds`` holds the random-simulation
        time separately (the paper's "Simulation" column).
        """
        start = time.perf_counter()
        stats0 = self.engine.stats.copy()
        timers = self.engine.timers
        timer_snap = timers.snapshot() if timers is not None else None
        engine_seconds0 = self.engine.solve_seconds_total
        if objectives is None:
            objectives = list(self.circuit.outputs)
            if not objectives:
                raise SolverError("circuit has no outputs and no objectives "
                                  "were given")
        if limits is not None:
            limits.validate()
            if limits.exhausted_on_entry():
                # Zero/negative budget: skip the learning phases too, so
                # both engines (and this orchestrator) behave identically.
                return SolverResult(status=UNKNOWN,
                                    time_seconds=time.perf_counter() - start)
        sim_seconds = 0.0
        try:
            sim_seconds = self.prepare(limits=limits)
            remaining = limits
            if limits is not None and limits.max_seconds is not None:
                remaining = Limits(max_conflicts=limits.max_conflicts,
                                   max_decisions=limits.max_decisions,
                                   max_seconds=max(
                                       0.001, limits.max_seconds
                                       - (time.perf_counter() - start)))
            result = self.engine.solve(assumptions=list(objectives),
                                       limits=remaining,
                                       proof_refutation=self.proof is not None)
        except KeyboardInterrupt:
            # Ctrl-C during simulation/explicit learning: the engine never
            # got to convert it, so do the equivalent here — an UNKNOWN
            # result carrying whatever partial effort accumulated.
            result = SolverResult(status=UNKNOWN, interrupted=True)
        result.stats = self.engine.stats.delta_since(stats0)
        result.time_seconds = time.perf_counter() - start
        result.sim_seconds = sim_seconds
        if timers is not None:
            # Whole-call phase split: engine phases accumulated across the
            # explicit-learning sub-problems *and* the main search, plus the
            # simulation phase and the unaccounted remainder.
            result.phase_seconds = complete_phases(
                timers.delta_since(timer_snap), result.time_seconds,
                sim_seconds)
        if self.engine.tracer is not None:
            # The per-call solve_end events only cover time inside engine
            # solve() calls; account the orchestration spent between them
            # (explicit-learning setup, correlation wiring) so a trace's
            # phase seconds sum to this call's wall time.
            gap = (result.time_seconds - sim_seconds
                   - (self.engine.solve_seconds_total - engine_seconds0))
            if gap > 0.0:
                self.engine.tracer.emit("phase", phase="other",
                                        seconds=round(gap, 6))
        if self.options.certify:
            # Imported here: repro.verify sits above core in the layering.
            from ..verify.certify import certify_result, require
            require(certify_result(self.circuit, result,
                                   objectives=list(objectives),
                                   proof=self.proof),
                    context=self.circuit.name)
        return result


def solve_circuit(circuit: Circuit,
                  objectives: Optional[Sequence[int]] = None,
                  options: Optional[SolverOptions] = None,
                  limits: Optional[Limits] = None) -> SolverResult:
    """One-shot convenience wrapper around :class:`CircuitSolver`."""
    return CircuitSolver(circuit, options).solve(objectives, limits)


def check_equivalence(left: Circuit, right: Circuit,
                      options: Optional[SolverOptions] = None,
                      limits: Optional[Limits] = None,
                      style: str = "or") -> SolverResult:
    """SAT-based equivalence check of two circuits.

    Builds the miter and asks whether its output can be 1; an UNSAT result
    means the circuits are equivalent, a SAT result carries a
    counterexample model.
    """
    m = miter(left, right, style=style)
    return CircuitSolver(m, options).solve()
