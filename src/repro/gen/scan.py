"""Scan-style shallow miters (the paper's ``sxxxxx.scan`` stand-ins).

The paper's Table X runs full-scan versions of ISCAS-89 sequential circuits:
every flip-flop output is treated as a primary input and every flip-flop
data input as a primary output, leaving *wide, shallow* combinational
next-state logic.  The paper conjectures that the reduced depth is what
weakens its learning techniques on these cases relative to the deep
combinational miters.

The stand-in reproduces that shape: many small next-state blocks over a
shared state/input bus, each only a few levels deep, mitered against a
rewriter-optimized copy (full circuits' miters stay unsatisfiable).
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Optional

from ..circuit.netlist import Circuit
from ..circuit.miter import miter
from ..circuit.rewrite import optimize
from ..errors import CircuitError


def scan_like(num_blocks: int, support: int = 6, depth: int = 4,
              num_state: int = 24, num_pi: int = 8, seed: int = 0,
              name: Optional[str] = None) -> Circuit:
    """Wide, shallow next-state logic with full-scan interface.

    ``num_blocks`` next-state functions, each a random expression tree of
    ``depth`` levels over ``support`` signals drawn from ``num_state``
    pseudo-inputs (scanned state bits) and ``num_pi`` true primary inputs.
    """
    if num_blocks < 1 or support < 2 or depth < 1:
        raise CircuitError("invalid scan_like parameters")
    rng = random.Random(seed)
    c = Circuit(name or "scan{}b{}".format(num_blocks, seed))
    state = [c.add_input("st{}".format(i)) for i in range(num_state)]
    pis = [c.add_input("pi{}".format(i)) for i in range(num_pi)]
    bus = state + pis

    def expr(level: int, leaves: List[int]) -> int:
        if level == 0:
            return leaves[rng.randrange(len(leaves))] ^ rng.randint(0, 1)
        a = expr(level - 1, leaves)
        b = expr(level - 1, leaves)
        choice = rng.random()
        if choice < 0.5:
            return c.add_and(a, b)
        if choice < 0.8:
            return c.or_(a, b)
        return c.xor_(a, b)

    for blk in range(num_blocks):
        leaves = rng.sample(bus, min(support, len(bus)))
        c.add_output(expr(depth, leaves), "ns{}".format(blk))
    return c


# Stand-in parameters per paper name: (blocks, support, depth, state, pi).
_SCAN_CATALOG: Dict[str, tuple] = {
    "s13207": (24, 5, 3, 20, 8),
    "s15850": (28, 5, 3, 22, 8),
    "s35932": (40, 6, 4, 28, 10),
    "s38417": (44, 6, 4, 30, 10),
    "s38584": (48, 6, 4, 32, 10),
}


def scan_catalog_names() -> List[str]:
    return sorted(_SCAN_CATALOG)


def scan_circuit_by_name(name: str) -> Circuit:
    """Build the scan-style stand-in for a paper name (e.g. ``"s38417"``)."""
    key = name.lower().split(".")[0]
    try:
        blocks, support, depth, num_state, num_pi = _SCAN_CATALOG[key]
    except KeyError:
        raise CircuitError("unknown scan circuit {!r}; known: {}".format(
            name, ", ".join(scan_catalog_names())))
    return scan_like(blocks, support=support, depth=depth,
                     num_state=num_state, num_pi=num_pi,
                     seed=zlib.crc32(key.encode()) & 0xffff,
                     name=key + ".scan")


def scan_equiv_miter(name: str, seed: int = 0, style: str = "or") -> Circuit:
    """The ``sxxxxx.scan.equiv`` instance: scan circuit vs optimized copy."""
    base = scan_circuit_by_name(name)
    opt = optimize(base, seed=seed, rounds=2)
    m = miter(base, opt, style=style)
    m.name = name + ".scan.equiv"
    return m
