"""Micro-benchmarks of the performance-critical substrates.

Unlike the table benches (one-shot experiments), these use
pytest-benchmark's statistical timing on small repeatable kernels:

* gate-level BCP throughput (the engine's inner loop),
* CNF watched-literal propagation,
* the flat-array kernel on both of those probes (the speedup the
  ``kernel_*`` / legacy pairs record is the repo's ≥5x claim),
* word-parallel random simulation,
* correlation-class refinement,
* miter construction and Tseitin encoding.
"""

import random

import pytest

from repro import CnfSolver, Limits, tseitin
from repro.csat.engine import CSatEngine
from repro.csat.options import SolverOptions
from repro.gen.iscas import circuit_by_name, equiv_miter
from repro.kernel import FlatCnfSolver, KernelEngine
from repro.sim.bitsim import random_input_words, simulate_words
from repro.sim.correlation import find_correlations
from repro.circuit.miter import miter_identical


@pytest.fixture(scope="module")
def mult_miter():
    return equiv_miter("c6288")


def test_simulation_throughput(benchmark, mult_miter):
    """64 patterns through ~1.7k gates per call."""
    rng = random.Random(7)
    words = random_input_words(mult_miter, rng, 64)
    benchmark(simulate_words, mult_miter, words, 64)


def test_correlation_discovery(benchmark, mult_miter):
    benchmark(find_correlations, mult_miter, seed=3)


def test_circuit_bcp_throughput(benchmark, mult_miter):
    """Propagation-heavy partial search: a fixed 200-conflict probe."""
    def probe():
        engine = CSatEngine(mult_miter, SolverOptions())
        return engine.solve(assumptions=list(mult_miter.outputs),
                            limits=Limits(max_conflicts=200))

    result = benchmark.pedantic(probe, rounds=3, iterations=1)
    assert result.stats.propagations > 0


def test_cnf_bcp_throughput(benchmark, mult_miter):
    formula, _ = tseitin(mult_miter, objectives=list(mult_miter.outputs))

    def probe():
        return CnfSolver(formula).solve(limits=Limits(max_conflicts=200))

    result = benchmark.pedantic(probe, rounds=3, iterations=1)
    assert result.stats.propagations > 0


def test_kernel_circuit_bcp_throughput(benchmark, mult_miter):
    """The flat kernel on the same 200-conflict probe as the legacy
    engine above; the median ratio between the two is the kernel's
    speedup on BCP-dominated search."""
    def probe():
        engine = KernelEngine(mult_miter)
        return engine.solve(assumptions=list(mult_miter.outputs),
                            limits=Limits(max_conflicts=200))

    result = benchmark.pedantic(probe, rounds=3, iterations=1)
    assert result.stats.propagations > 0


def test_kernel_cnf_bcp_throughput(benchmark, mult_miter):
    formula, _ = tseitin(mult_miter, objectives=list(mult_miter.outputs))

    def probe():
        return FlatCnfSolver(formula).solve(limits=Limits(max_conflicts=200))

    result = benchmark.pedantic(probe, rounds=3, iterations=1)
    assert result.stats.propagations > 0


@pytest.fixture(scope="module")
def c3540_miter():
    return equiv_miter("c3540")


def test_endtoend_c3540_legacy(benchmark, c3540_miter):
    """Full refutation of the c3540 miter, plain VSIDS (no J-node) —
    the same search strategy the kernel implements, so the pair below
    isolates the flat-array rewrite end to end."""
    def probe():
        engine = CSatEngine(c3540_miter, SolverOptions(use_jnode=False))
        return engine.solve(assumptions=list(c3540_miter.outputs))

    result = benchmark.pedantic(probe, rounds=3, iterations=1)
    assert result.status == "UNSAT"


def test_endtoend_c3540_kernel(benchmark, c3540_miter):
    def probe():
        engine = KernelEngine(c3540_miter)
        return engine.solve(assumptions=list(c3540_miter.outputs))

    result = benchmark.pedantic(probe, rounds=3, iterations=1)
    assert result.status == "UNSAT"


@pytest.fixture(scope="module")
def c1355_miter():
    return equiv_miter("c1355")


def test_endtoend_c1355_legacy(benchmark, c1355_miter):
    """The XOR-heavy c1355 miter is where the flat arrays pay off most:
    deep reconvergent fanout keeps BCP hot for thousands of conflicts."""
    def probe():
        engine = CSatEngine(c1355_miter, SolverOptions(use_jnode=False))
        return engine.solve(assumptions=list(c1355_miter.outputs))

    result = benchmark.pedantic(probe, rounds=3, iterations=1)
    assert result.status == "UNSAT"


def test_endtoend_c1355_kernel(benchmark, c1355_miter):
    def probe():
        engine = KernelEngine(c1355_miter)
        return engine.solve(assumptions=list(c1355_miter.outputs))

    result = benchmark.pedantic(probe, rounds=3, iterations=1)
    assert result.status == "UNSAT"


def test_miter_construction(benchmark):
    base = circuit_by_name("c3540")
    benchmark(miter_identical, base)


def test_tseitin_encoding(benchmark, mult_miter):
    benchmark(tseitin, mult_miter, objectives=list(mult_miter.outputs))
