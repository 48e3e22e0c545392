"""Exhaustive cone certification: a sound fast path for fact re-proof.

A replayed store fact is a claim about a handful of signals — "this
cone is constant", "these two cones are equal", "this unit/binary
clause holds".  The default way to re-establish such a claim on the
requesting circuit is a budgeted SAT probe, but when the *joint input
cone* of the involved signals is small there is a cheaper proof that is
just as sound: enumerate **all** assignments of the cone's inputs with
word-parallel simulation, evaluating the cone where it sits in the
circuit.  Signals outside the cone cannot affect the claimed signals,
so exhausting the cone's inputs exhausts all circuit behaviours the
claim ranges over — the check is exact, never "probably".

On the mutated-miter workload this is the difference between
re-deriving a miter's output constants by CDCL (about as expensive as
solving from scratch) and certifying them in milliseconds: the deep
facts that carry the value of the knowledge store sit on cones of a few
dozen gates over a dozen inputs.

``ConeCertifier.clause`` returns ``True`` (certified: the clause holds
under every assignment), ``False`` (refuted: some assignment falsifies
it — for a store fact that means tampering or a digest collision), or
``None`` (cone too wide; fall back to a SAT probe).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..circuit.netlist import Circuit
from ..sim.bitsim import exhaustive_input_words

#: Widest joint input cone enumerated exhaustively (2**14 patterns — a
#: 16 kbit word per signal, still fast as Python bigint bit-ops).
MAX_EXHAUSTIVE_INPUTS = 14


class ConeCertifier:
    """Exact clause-validity oracle over one circuit's small cones.

    Truth tables are cached per root-node set, so certifying the two
    implications of an equivalence (or many facts sharing roots)
    simulates the cone only once.
    """

    def __init__(self, circuit: Circuit,
                 max_inputs: int = MAX_EXHAUSTIVE_INPUTS):
        self.circuit = circuit
        self.max_inputs = max_inputs
        self.certified = 0
        self.refuted = 0
        self.too_wide = 0
        #: root-node tuple -> (node -> truth table, mask), or None when
        #: the joint cone exceeds ``max_inputs``.
        self._cache: Dict[Tuple[int, ...],
                          Optional[Tuple[Dict[int, int], int]]] = {}

    def _tables(self, roots: Tuple[int, ...]
                ) -> Optional[Tuple[Dict[int, int], int]]:
        if roots in self._cache:
            return self._cache[roots]
        circuit = self.circuit
        cone = circuit.cone([2 * n for n in roots])
        inputs = [n for n in cone if circuit.is_input(n)]
        k = len(inputs)
        if k > self.max_inputs:
            self._cache[roots] = None
            return None
        # The cone's inputs, in ascending node order, take the exhaustive
        # patterns; its AND nodes are evaluated in place (``cone`` is
        # sorted, hence topological).
        mask = (1 << (1 << k)) - 1
        vals: Dict[int, int] = dict(zip(inputs, exhaustive_input_words(k)))
        vals[0] = 0
        fanins, is_and = circuit.fanins, circuit.is_and
        for n in cone:
            if is_and(n):
                f0, f1 = fanins(n)
                a = vals[f0 >> 1] ^ (mask if f0 & 1 else 0)
                b = vals[f1 >> 1] ^ (mask if f1 & 1 else 0)
                vals[n] = a & b
        result = ({node: vals[node] for node in roots}, mask)
        self._cache[roots] = result
        return result

    def clause(self, lits: List[int]) -> Optional[bool]:
        """Does ``lits`` (an OR of literals) hold for *every* input?

        ``True``/``False`` are exact answers (exhaustive over the joint
        cone's inputs); ``None`` means the cone is too wide to certify
        this way.
        """
        if not lits:
            return False
        roots = tuple(sorted({lit >> 1 for lit in lits}))
        if 0 in roots:        # constant literals: decided structurally
            if any((lit >> 1) == 0 and (lit & 1) for lit in lits):
                return True   # clause contains constant TRUE
            lits = [lit for lit in lits if (lit >> 1) != 0]
            if not lits:
                return False
            roots = tuple(sorted({lit >> 1 for lit in lits}))
        entry = self._tables(roots)
        if entry is None:
            self.too_wide += 1
            return None
        tables, mask = entry
        word = 0
        for lit in lits:
            table = tables[lit >> 1]
            if lit & 1:
                table ^= mask
            word |= table
        if word == mask:
            self.certified += 1
            return True
        self.refuted += 1
        return False
