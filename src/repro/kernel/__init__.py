"""Flat-array CDCL kernel (the ``kernel`` backend/preset).

Layout and rationale are documented in ``docs/internals.md``; in short:
int32 arenas instead of per-clause objects, index-linked watch lists and
a preallocated trail ring.  The legacy engines remain the differential
oracle — see ``tests/test_kernel_differential.py``.
"""

from .circuit import KernelEngine
from .cnf import FlatCnfSolver, solve_formula_flat
from .flat import FlatSolver

__all__ = [
    "FlatSolver",
    "FlatCnfSolver",
    "KernelEngine",
    "solve_formula_flat",
]
