"""Determinism regression: pinned kernel search counters.

The flat kernel has no hidden randomness — ties in VSIDS break by
variable index, restarts follow the Luby sequence, and clause-DB
reduction sorts stably — so for a fixed instance the conflict, decision,
and propagation counters are exact constants.  Any drift here means a
behavioral change to the search (intended or not) and must be reviewed:
re-pin the table only when the change is deliberate.

The pins below were produced by solving each instance once; the slow
tier re-solves and compares, and a quick sample guards every push.
The pins only mean something if the *instances* are reproducible too:
:func:`test_catalog_independent_of_hash_seed` builds the whole catalog
under two ``PYTHONHASHSEED`` values and compares fingerprints.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.bench.instances import instance_by_name
from repro.kernel import KernelEngine

#: (instance, verdict, conflicts, decisions, propagations)
PINNED = [
    ("c1355.equiv", "UNSAT", 2110, 3618, 128888),
    ("c2670.equiv", "UNSAT", 210, 874, 14948),
    ("c3540.equiv", "UNSAT", 753, 1534, 56617),
    ("c5315.equiv", "UNSAT", 121, 710, 7601),
    ("c7552.equiv", "UNSAT", 1759, 4445, 102117),
    ("c3540.opt", "UNSAT", 773, 1568, 57201),
    ("c7552.opt", "UNSAT", 1242, 4305, 86243),
    ("c1908.equiv", "UNSAT", 2432, 4788, 173517),
    ("9vliw001", "SAT", 580, 734, 136251),
    ("9vliw004", "SAT", 195, 289, 44224),
    ("s13207.scan.equiv", "UNSAT", 173, 689, 12489),
    ("s15850.scan.equiv", "UNSAT", 234, 1021, 22691),
]

#: Fast subset run in tier-1 (the rest ride the slow tier).
QUICK = {"c2670.equiv", "c5315.equiv", "c3540.opt", "s13207.scan.equiv",
         "s15850.scan.equiv"}


def _solve(name: str):
    circuit = instance_by_name(name).build()
    return KernelEngine(circuit).solve(assumptions=list(circuit.outputs))


def _check(name, status, conflicts, decisions, propagations):
    result = _solve(name)
    got = (result.status, result.stats.conflicts, result.stats.decisions,
           result.stats.propagations)
    assert got == (status, conflicts, decisions, propagations), (
        "{}: counters drifted — got status={} conflicts={} decisions={} "
        "propagations={}; if the search change is intentional, re-pin "
        "PINNED in this file".format(name, *got))


@pytest.mark.parametrize("name,status,conflicts,decisions,propagations",
                         [p for p in PINNED if p[0] in QUICK])
def test_kernel_counters_pinned_quick(name, status, conflicts, decisions,
                                      propagations):
    _check(name, status, conflicts, decisions, propagations)


@pytest.mark.slow
@pytest.mark.parametrize("name,status,conflicts,decisions,propagations",
                         [p for p in PINNED if p[0] not in QUICK])
def test_kernel_counters_pinned_full(name, status, conflicts, decisions,
                                     propagations):
    _check(name, status, conflicts, decisions, propagations)


def test_kernel_repeat_solves_are_identical():
    """Two fresh engines on the same instance take the same path."""
    a = _solve("c2670.equiv")
    b = _solve("c2670.equiv")
    assert (a.stats.conflicts, a.stats.decisions, a.stats.propagations) \
        == (b.stats.conflicts, b.stats.decisions, b.stats.propagations)


_FINGERPRINT_CATALOG = """
import json
from repro.bench.instances import all_instances
from repro.serve.fingerprint import fingerprint
print(json.dumps({inst.name: fingerprint(inst.build()).digest
                  for inst in all_instances()}))
"""


def test_catalog_independent_of_hash_seed():
    """Every catalog instance builds identically in fresh processes
    whatever their string-hash salt (generators must not seed from
    ``hash()`` or iterate over hash-ordered sets)."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    digests = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _FINGERPRINT_CATALOG],
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True).stdout
        digests.append(json.loads(out))
    first, second = digests
    assert first and first == second, sorted(
        name for name in first if first[name] != second.get(name))
