"""The benchmark's inputs: fixed instance pools, the seeded draw, and the
manifest that pins them.

Every input is built from the solver package's public generators.  Each
workload owns a fixed pool of named inputs (for ``serve_mixed``,
``repro.serve.loadgen.build_workload`` requests and renamed duplicates
of some of them); the run's seed decides the order in which each pass
visits them.

Fixed pools keep the run-to-run spread at the level of machine noise:
the solver is deterministic, so a seeded draw from a larger population
would measure a different mix of easy and hard instances in every run,
and solve times in these families spread by 10x.

``manifest.json`` records, per instance name, the gate count, the
``repro.serve.fingerprint`` digest and the expected answer.  A run whose
inputs differ from it fails, so a change to a generator cannot silently
re-baseline the benchmark.  Regenerate it with::

    PYTHONHASHSEED=0 python3 perfbench/inputs.py

which also recomputes every answer that is not known by construction
with the ``repro.cnf`` baseline solver (it shares no code with the
circuit engines).

The ``.scan.equiv`` family is left out: its builders iterate over
hash-ordered sets, so under ``PYTHONHASHSEED`` 0 and 1 all five scan
instances give different digests and conflict counts, while every
``.equiv``/``.opt``/VLIW/multiplier input is identical.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "manifest.json")

SAT, UNSAT = "SAT", "UNSAT"


@dataclass
class Instance:
    """One batch input: a name, a builder and the answer by construction."""

    name: str
    expect: str
    build: Callable


@dataclass
class Request:
    """One serve input: a request body and what a correct reply is."""

    label: str
    text: str
    cls: str              # traffic class (loadgen's, or "duplicate")
    expect: Optional[str]  # SAT/UNSAT, or None when not known


# ----------------------------------------------------------------------
# Batch pools
# ----------------------------------------------------------------------

#: ISCAS self-miters (Tables I/III/V, C6288 and the Table X c2670 row).
EQUIV_NAMES = ("c1355", "c2670", "c3540", "c5315", "c7552", "c6288")
#: ``.opt`` miters over several rewrite seeds: (circuit, rewrite seed).
OPT_CASES = (("c3540", 0), ("c3540", 1), ("c7552", 0))
#: VLIW indices: catalog Table II/X rows and further indices.
VLIW_INDICES = (4, 16, 28)
VLIW_WIDTH = 7
#: Multiplier miters for cube-and-conquer: (width, input mask seed);
#: mask seed None is the plain array-vs-carry-save miter.
MULT_CASES = ((4, None), (4, 1), (4, 2), (5, None))


def _equiv(name: str) -> Instance:
    from repro.gen.iscas import equiv_miter
    return Instance(name + ".equiv", UNSAT, lambda: equiv_miter(name))


def _opt(name: str, seed: int) -> Instance:
    from repro.gen.iscas import opt_miter
    label = name + ".opt" + ("" if seed == 0 else "@{}".format(seed))
    return Instance(label, UNSAT, lambda: opt_miter(name, seed=seed))


def _vliw(index: int) -> Instance:
    from repro.gen.velev import vliw_like
    # SAT by construction: the builder plants a witness.
    return Instance("9vliw{:03d}".format(index), SAT,
                    lambda: vliw_like(index, width=VLIW_WIDTH))


def masked_multiplier(width: int, mask_seed: Optional[int]):
    """Array-vs-carry-save multiplier miter, its inputs inverted by a
    seeded mask.  Both halves see the same inverted inputs, so the miter
    stays UNSAT while its structure (and digest) changes."""
    from repro.circuit.miter import miter
    from repro.circuit.netlist import Circuit
    from repro.circuit.topo import append_circuit
    from repro.gen.arith import array_multiplier, csa_multiplier
    base = miter(array_multiplier(width), csa_multiplier(width))
    if mask_seed is None:
        return base
    rng = random.Random(mask_seed)
    masked = Circuit("mult{}~m{}".format(width, mask_seed), strash=False)
    input_map = {pi: masked.add_input("x{}".format(k)) ^ rng.randint(0, 1)
                 for k, pi in enumerate(base.inputs)}
    copied = append_circuit(masked, base, input_map, raw=True)
    for k, lit in enumerate(base.outputs):
        masked.add_output(copied[lit >> 1] ^ (lit & 1), "o{}".format(k))
    return masked


def _mult(width: int, mask_seed: Optional[int]) -> Instance:
    name = "mult{}.arith".format(width)
    if mask_seed is not None:
        name += "~m{}".format(mask_seed)
    return Instance(name, UNSAT, lambda: masked_multiplier(width, mask_seed))


def batch_pool(workload: str) -> List[Instance]:
    if workload == "miter_unsat":
        return ([_equiv(n) for n in EQUIV_NAMES]
                + [_opt(n, s) for n, s in OPT_CASES])
    if workload == "vliw_sat":
        return [_vliw(i) for i in VLIW_INDICES]
    if workload == "cube_mult":
        return [_mult(w, m) for w, m in MULT_CASES]
    raise ValueError("not a batch workload: {}".format(workload))


def pass_order(pool: list, seed: int, index: int) -> list:
    """The seeded visiting order of one pass over the pool."""
    order = list(pool)
    random.Random(seed * 1_000_003 + index).shuffle(order)
    return order


# ----------------------------------------------------------------------
# Serve requests
# ----------------------------------------------------------------------

#: The loadgen seed of the request pool (fixed: the pool is pinned).
POOL_SEED = 11
POOL_REQUESTS = 40
POOL_MUTATED_FRACTION = 0.15
#: Fresh requests per traffic class, taken in pool order.
SERVE_MIX = (("random_dag", 3), ("cnf_phase", 3), ("mutated_miter", 2),
             ("unsat_miter", 1))
#: Classes with a renamed duplicate of their first request (a mutated
#: miter is new by design, so it has none).
DUPLICATED = ("random_dag", "cnf_phase", "unsat_miter")


def serve_requests() -> List[Request]:
    """The fixed serve pool: fresh ``loadgen.build_workload`` requests of
    each class, then a renamed duplicate of one request of each
    duplicated class, which the answer cache should answer."""
    from repro.serve.loadgen import build_workload, workload_class
    items = build_workload(seed=POOL_SEED, count=POOL_REQUESTS,
                           duplicate_fraction=0.0,
                           mutated_fraction=POOL_MUTATED_FRACTION)
    by_class: Dict[str, List[Request]] = {}
    for item in items:
        cls = workload_class(item.label)
        by_class.setdefault(cls, []).append(
            Request(item.label, item.text, cls, item.expect))
    fresh = []
    for cls, count in SERVE_MIX:
        if len(by_class.get(cls, ())) < count:
            raise ValueError("the serve pool has too few {} requests"
                             .format(cls))
        fresh.extend(by_class[cls][:count])
    return fresh + [duplicate_of(by_class[cls][0]) for cls in DUPLICATED]


def duplicate_of(request: Request) -> Request:
    """A renamed copy of a fresh request: same structure, new names."""
    from repro.circuit.bench_io import write_bench
    from repro.circuit.source import read_circuit_text
    from repro.serve.loadgen import renamed_copy
    twin = renamed_copy(read_circuit_text(request.text, name=request.label),
                        "r")
    return Request(request.label + "#dup", write_bench(twin), "duplicate",
                   request.expect)


def warm_sweep_text() -> str:
    """The base miter the knowledge store is warmed with at set-up."""
    from repro.circuit.bench_io import write_bench
    return write_bench(masked_multiplier(4, None))


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------

def describe(circuit) -> Dict[str, object]:
    from repro.serve.fingerprint import fingerprint
    return {"gates": circuit.num_ands,
            "digest": fingerprint(circuit).digest}


def parse_request(request: Request):
    from repro.circuit.source import read_circuit_text
    return read_circuit_text(request.text, name=request.label)


def load_manifest() -> Dict[str, Dict[str, Dict[str, object]]]:
    with open(MANIFEST) as fh:
        return json.load(fh)


class ManifestError(Exception):
    pass


def check_entry(manifest: Dict[str, Dict[str, object]], name: str,
                circuit) -> Dict[str, object]:
    """The manifest entry of ``name``; raises if ``circuit`` differs."""
    entry = manifest.get(name)
    if entry is None:
        raise ManifestError("input {} is not in the manifest".format(name))
    seen = describe(circuit)
    for key, value in seen.items():
        if entry.get(key) != value:
            raise ManifestError(
                "input {} differs from the manifest: {} is {}, pinned {}"
                .format(name, key, value, entry.get(key)))
    return entry


def cnf_baseline(circuit) -> str:
    """The answer by the ``repro.cnf`` CDCL baseline (no shared code with
    the circuit engines)."""
    from repro.circuit.cnf_convert import tseitin
    from repro.cnf.solver import CnfSolver
    formula, _ = tseitin(circuit)
    return CnfSolver(formula).solve().status


def build_manifest() -> Dict[str, Dict[str, Dict[str, object]]]:
    manifest: Dict[str, Dict[str, Dict[str, object]]] = {}
    for workload in ("miter_unsat", "vliw_sat", "cube_mult"):
        entries = {}
        for inst in batch_pool(workload):
            entry = describe(inst.build())
            entry["expect"] = inst.expect
            entries[inst.name] = entry
        manifest[workload] = entries
    entries = {}
    for request in serve_requests():
        circuit = parse_request(request)
        entry = describe(circuit)
        entry["expect"] = (request.expect if request.expect is not None
                           else cnf_baseline(circuit))
        entries[request.label] = entry
    manifest["serve_mixed"] = entries
    return manifest


def main() -> int:
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("error: run with PYTHONHASHSEED=0", file=sys.stderr)
        return 2
    manifest = build_manifest()
    with open(MANIFEST, "w") as fh:
        # One input per line keeps the file small and its diffs readable.
        fh.write("{\n")
        for k, workload in enumerate(sorted(manifest)):
            fh.write(" {}: {{\n".format(json.dumps(workload)))
            entries = manifest[workload]
            for j, name in enumerate(sorted(entries)):
                fh.write("  {}: {}{}\n".format(
                    json.dumps(name), json.dumps(entries[name],
                                                 sort_keys=True),
                    "," if j + 1 < len(entries) else ""))
            fh.write(" }}{}\n".format("," if k + 1 < len(manifest) else ""))
        fh.write("}\n")
    print("wrote {} ({} inputs)".format(
        MANIFEST, sum(len(v) for v in manifest.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
