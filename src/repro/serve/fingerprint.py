"""Canonical structural fingerprints: name-independent cache keys.

A serving workload (equivalence checking inside a synthesis loop, the
paper's Verplex setting) fires streams of *structurally identical*
queries whose only difference is wire names or gate ordering.  To make
those near-free, the answer cache keys on a **topological normal form**
of the strashed AIG rather than on the input text:

1. the circuit is rebuilt with full strashing (constant folding,
   ``x & x``/``x & ~x`` simplification, structural dedup) restricted to
   the cone of its outputs — dangling logic and unused inputs cannot
   change satisfiability, so they do not reach the key;
2. every node gets a *forward hash* (inputs share one seed, AND nodes
   hash their fanins' hashes with inverter bits, fanins sorted so the
   commutated gate hashes identically) and a *backward hash* (an
   order-independent accumulation over its fanouts, each contribution
   mixing the sibling fanin's forward hash and the inverter bit, seeded
   at the output roots) — so an input's signature describes *how the
   outputs depend on it*, independent of any name;
3. inputs are ordered by signature (ties keep their original relative
   order), the cone is rebuilt once more in a canonical depth-first
   order from the canonically-sorted outputs, and the resulting netlist
   is serialized into a BLAKE2b digest.

Two circuits that differ only in names, gate creation order, redundant
structure, or commutation of AND fanins therefore produce the **same
digest**; flipping a single inverter attribute produces a different one.
Equal digests do not *prove* equivalence (hashes can collide, and
symmetric-input permutations may or may not normalize together), which
is why the cache re-certifies every SAT model against the requesting
circuit before serving it — see :mod:`repro.serve.cache` for the
soundness contract.

The fingerprint also records the request circuit's primary inputs in
canonical order, so a SAT model cached as *canonical input bits* can be
replayed onto any later circuit that fingerprints identically.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..circuit.netlist import Circuit, PI
from ..circuit.topo import restrash

_MASK = (1 << 64) - 1
_PI_SEED = 0x9E3779B97F4A7C15
_ROOT_SEED = 0xC2B2AE3D27D4EB4F
#: XORed into a node hash to form the *complemented-edge* hash, so the
#: inverter bit changes the edge signature without an extra mix round.
_INV = 0xA5A5A5A5A5A5A5A5
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _mix(*parts: int) -> int:
    """64-bit hash of a tuple of ints (splitmix64-style, stable runs).

    Pure integer arithmetic: this runs per AIG edge on the serving warm
    path, where a hashlib object per call dominates the whole
    fingerprint.  Only the final digest over the canonical serialization
    needs cryptographic strength (it is BLAKE2b); these internal hashes
    just need enough avalanche that distinct local structures do not
    collide canonically.  The hash loops below inline this arithmetic —
    keep them in sync.
    """
    h = 0x243F6A8885A308D3 ^ ((len(parts) * _PI_SEED) & _MASK)
    for p in parts:
        z = (h + (p & _MASK) + _PI_SEED) & _MASK
        z = ((z ^ (z >> 30)) * _M1) & _MASK
        z = ((z ^ (z >> 27)) * _M2) & _MASK
        h = z ^ (z >> 31)
    return h


@dataclass
class Fingerprint:
    """Canonical fingerprint of one circuit.

    ``digest`` is the cache key; ``input_nodes`` lists the *request
    circuit's* PI node ids in canonical order (position ``i`` holds the
    PI that canonical input ``i`` maps to), which is what lets a cached
    canonical-bit model be replayed onto a renamed twin.  Unused inputs
    (outside every output cone) are excluded — any completion of them
    preserves a SAT model, and they cannot affect UNSAT.
    """

    digest: str
    num_inputs: int
    num_ands: int
    num_outputs: int
    input_nodes: List[int]

    def as_dict(self) -> Dict[str, object]:
        return {"digest": self.digest, "inputs": self.num_inputs,
                "ands": self.num_ands, "outputs": self.num_outputs}


def _hash_ands(circuit: Circuit, cone: List[int],
               fwd: Dict[int, int]) -> None:
    """Fill ``fwd`` for the AND nodes of the cone (PIs must be seeded).

    Per gate: the two *edge* hashes (node hash, XOR :data:`_INV` when the
    edge is complemented) are sorted so commutated gates agree, then
    mixed through one inlined splitmix64 round each — the arithmetic of
    :func:`_mix`, unrolled because this is the serving warm path.
    """
    fanins = circuit.fanins
    is_and = circuit.is_and
    for n in cone:
        if not is_and(n):
            continue
        f0, f1 = fanins(n)
        a = fwd[f0 >> 1] ^ (_INV if f0 & 1 else 0)
        b = fwd[f1 >> 1] ^ (_INV if f1 & 1 else 0)
        if a > b:
            a, b = b, a
        z = (0x243F6A8885A308D3 ^ ((2 * _PI_SEED) & _MASK)) + a + _PI_SEED
        z &= _MASK
        z = ((z ^ (z >> 30)) * _M1) & _MASK
        z = ((z ^ (z >> 27)) * _M2) & _MASK
        z = (z ^ (z >> 31)) + b + _PI_SEED
        z &= _MASK
        z = ((z ^ (z >> 30)) * _M1) & _MASK
        z = ((z ^ (z >> 27)) * _M2) & _MASK
        fwd[n] = z ^ (z >> 31)


def _forward_hashes(circuit: Circuit, cone: List[int]) -> Dict[int, int]:
    fwd: Dict[int, int] = {0: _mix(0)}
    for n in cone:
        if circuit.kind(n) == PI:
            fwd[n] = _PI_SEED
    _hash_ands(circuit, cone, fwd)
    return fwd


def _backward_hashes(circuit: Circuit, cone: List[int],
                     fwd: Dict[int, int]) -> Dict[int, int]:
    """Order-independent fanout signatures over the output cone.

    Contributions are summed (mod 2^64) so gate creation order cannot
    leak into the signature; each fanin's contribution mixes the parent's
    backward hash, this fanin's inverter bit, and the *sibling* fanin's
    forward hash (which distinguishes the two sides canonically).
    """
    bwd: Dict[int, int] = {n: 0 for n in cone}
    bwd[0] = 0
    for o in circuit.outputs:
        root = o >> 1
        if root in bwd:
            bwd[root] = (bwd[root] + _mix(_ROOT_SEED, o & 1)) & _MASK
    fanins = circuit.fanins
    is_and = circuit.is_and
    seed2 = 0x243F6A8885A308D3 ^ ((2 * _PI_SEED) & _MASK)
    for n in reversed(cone):
        if not is_and(n):
            continue
        f0, f1 = fanins(n)
        here = bwd[n]
        # c0 = _mix(here ^ inv(f0), sibling_edge(f1)), inlined; ditto c1.
        for fa, fb in ((f0, f1), (f1, f0)):
            a = here ^ (_INV if fa & 1 else 0)
            b = fwd[fb >> 1] ^ (_INV if fb & 1 else 0)
            z = (seed2 + a + _PI_SEED) & _MASK
            z = ((z ^ (z >> 30)) * _M1) & _MASK
            z = ((z ^ (z >> 27)) * _M2) & _MASK
            z = ((z ^ (z >> 31)) + b + _PI_SEED) & _MASK
            z = ((z ^ (z >> 30)) * _M1) & _MASK
            z = ((z ^ (z >> 27)) * _M2) & _MASK
            node = fa >> 1
            bwd[node] = (bwd[node] + (z ^ (z >> 31))) & _MASK
    return bwd


def _canonical_rebuild(circuit: Circuit, fwd: Dict[int, int],
                       order: List[int]) -> Tuple[bytes, List[int]]:
    """Serialize the cone in canonical DFS order; returns (bytes, outs).

    ``order`` is the canonical PI order.  Node ids are assigned by a
    depth-first traversal from the outputs (sorted by forward hash), the
    smaller-forward-hash fanin visited first, so any two circuits whose
    hashes agree serialize identically regardless of creation order.
    The serialization is emitted directly (no intermediate netlist): the
    canonical gate list in assignment order, then the sorted output
    literals, all in canonical numbering.
    """
    node_map: Dict[int, int] = {0: 0}
    for k, pi in enumerate(order):
        node_map[pi] = k + 1
    next_id = len(order) + 1
    gates: List[int] = []
    roots = sorted(set(circuit.outputs),
                   key=lambda o: (_mix(fwd[o >> 1], o & 1)))

    def lit_key(lit: int) -> Tuple[int, int]:
        return (fwd[lit >> 1], lit & 1)

    for root in roots:
        stack = [root >> 1]
        while stack:
            n = stack.pop()
            if n in node_map:
                continue
            f0, f1 = circuit.fanins(n)
            if lit_key(f0) > lit_key(f1):
                f0, f1 = f1, f0
            pending = [f >> 1 for f in (f1, f0) if (f >> 1) not in node_map]
            if pending:
                stack.append(n)
                stack.extend(pending)
                continue
            a = (node_map[f0 >> 1] << 1) | (f0 & 1)
            b = (node_map[f1 >> 1] << 1) | (f1 & 1)
            if a > b:
                a, b = b, a
            gates.append(a)
            gates.append(b)
            node_map[n] = next_id
            next_id += 1
    out_lits = sorted(set((node_map[o >> 1] << 1) | (o & 1)
                          for o in circuit.outputs))
    blob = struct.pack("<III", len(order), len(gates) // 2, len(out_lits))
    blob += struct.pack("<{}Q".format(len(gates)), *gates)
    blob += struct.pack("<{}Q".format(len(out_lits)), *out_lits)
    return blob, out_lits


def fingerprint(circuit: Circuit) -> Fingerprint:
    """Compute the canonical structural fingerprint of ``circuit``."""
    normal, norm_map = restrash(circuit, name=circuit.name)
    cone = normal.cone(normal.outputs) if normal.outputs else []
    cone_set = set(cone)
    fwd = _forward_hashes(normal, cone)
    bwd = _backward_hashes(normal, cone, fwd)
    # Canonical input order: by fanout signature, original order on ties.
    used = [pi for pi in normal.inputs if pi in cone_set]
    order = sorted(used, key=lambda pi: bwd[pi])  # stable: ties keep order
    # Refine the forward hashes once with the canonical input positions:
    # without this, two *different* inputs are indistinguishable forward,
    # and structurally distinct circuits (e.g. AND(a,b) vs AND(a,a'))
    # could serialize identically.
    fwd2: Dict[int, int] = {0: _mix(0)}
    for pos, pi in enumerate(order):
        fwd2[pi] = _mix(_PI_SEED, pos, bwd[pi])
    _hash_ands(normal, cone, fwd2)
    blob, _ = _canonical_rebuild(normal, fwd2, order)
    digest = hashlib.blake2b(blob, digest_size=16).hexdigest()
    # Map canonical input positions back to *request circuit* PI nodes.
    lit_of_norm_pi = {}
    for req_pi in circuit.inputs:
        norm_node = norm_map[req_pi] >> 1
        lit_of_norm_pi.setdefault(norm_node, req_pi)
    input_nodes = [lit_of_norm_pi[pi] for pi in order]
    return Fingerprint(digest=digest,
                       num_inputs=len(order),
                       num_ands=sum(1 for n in cone_set
                                    if n and normal.is_and(n)),
                       num_outputs=len(set(normal.outputs)),
                       input_nodes=input_nodes)


def cone_keys(circuit: Circuit, min_depth: int = 1) -> Dict[int, str]:
    """Per-AND-node *input-cone* digests, one bulk O(gates) pass.

    Every primary input is seeded with its **position** in the circuit's
    input list (not the shared :data:`_PI_SEED`), so a node's forward
    hash becomes a digest of its entire input-side cone *relative to the
    PI positions it reads* — invariant under wire renaming, gate creation
    order, and AND commutation, but deliberately **not** under PI
    permutation: one pass covers every node, where a permutation-invariant
    key would cost a canonical rebuild per cone.

    Keys are 64-bit mix hashes, not cryptographic digests: a collision
    can propose a wrong candidate but never a wrong answer, because the
    incremental store re-proves every replayed fact on the requesting
    circuit (see :mod:`repro.inc.store`).  ``min_depth`` drops shallow
    cones (depth 1 = an AND of PIs) whose facts are cheaper to re-derive
    than to store.
    """
    fwd: Dict[int, int] = {0: _mix(0)}
    for pos, pi in enumerate(circuit.inputs):
        fwd[pi] = _mix(_PI_SEED, pos)
    ands = list(circuit.and_nodes())
    _hash_ands(circuit, ands, fwd)
    depth: Dict[int, int] = {}
    keys: Dict[int, str] = {}
    for n in ands:
        f0, f1 = circuit.fanins(n)
        d = 1 + max(depth.get(f0 >> 1, 0), depth.get(f1 >> 1, 0))
        depth[n] = d
        if d >= min_depth:
            keys[n] = "{:016x}".format(fwd[n])
    return keys


def model_to_bits(fp: Fingerprint, model: Optional[Dict[int, bool]]
                  ) -> List[int]:
    """Project a SAT model onto canonical input positions (0/1 list)."""
    model = model or {}
    return [1 if model.get(pi, False) else 0 for pi in fp.input_nodes]


def bits_to_model(fp: Fingerprint, bits: List[int]) -> Dict[int, bool]:
    """Rebuild a request-circuit input assignment from canonical bits."""
    if len(bits) != len(fp.input_nodes):
        raise ValueError("canonical model has {} bits, fingerprint wants {}"
                         .format(len(bits), len(fp.input_nodes)))
    return {pi: bool(bit) for pi, bit in zip(fp.input_nodes, bits)}
