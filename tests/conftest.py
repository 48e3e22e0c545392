"""Shared pytest fixtures and circuit-building helpers."""

from __future__ import annotations

import random

import pytest

from repro import Circuit
from repro.obs.metrics import MetricsRegistry, disable_metrics, enable_metrics


def build_random_circuit(seed: int, num_inputs: int = 5, num_gates: int = 25,
                         num_outputs: int = 2) -> Circuit:
    """Seeded random circuit used across solver cross-check tests."""
    rng = random.Random(seed)
    c = Circuit("rand{}".format(seed))
    lits = [c.add_input("i{}".format(k)) for k in range(num_inputs)]
    for _ in range(num_gates):
        a = rng.choice(lits) ^ rng.randint(0, 1)
        b = rng.choice(lits) ^ rng.randint(0, 1)
        lits.append(c.add_and(a, b))
    pool = lits[-max(num_outputs * 2, 1):]
    for i in range(num_outputs):
        c.add_output(rng.choice(pool) ^ rng.randint(0, 1), "o{}".format(i))
    return c


def build_full_adder() -> Circuit:
    """The canonical 1-bit full adder (3 inputs, sum + carry)."""
    c = Circuit("full_adder")
    a, b, cin = c.add_input("a"), c.add_input("b"), c.add_input("cin")
    axb = c.xor_(a, b)
    c.add_output(c.xor_(axb, cin), "sum")
    c.add_output(c.or_(c.add_and(a, b), c.add_and(axb, cin)), "carry")
    return c


@pytest.fixture
def full_adder() -> Circuit:
    return build_full_adder()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def registry():
    """A fresh process-wide metrics registry, disabled again afterwards."""
    reg = enable_metrics(MetricsRegistry())
    yield reg
    disable_metrics()
