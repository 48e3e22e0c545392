"""Replay stored cone facts into a new query: re-prove, merge, seed.

The pre-pass (:func:`incremental_prepass`) is how a solve job benefits
from the knowledge store.  It runs in *rounds*, because a local edit
invalidates the digest of every cone **above** it — the deep facts
(a miter's constant-0 outputs, cross-implementation equivalences) only
match again after the edited region has been merged back into the base
structure:

1. every internal signal gets its positional cone digest
   (:func:`repro.serve.fingerprint.cone_keys`, one O(gates) pass);
2. digests the store has *never seen* delimit the **changed region**;
   when it is small, a random-simulation pass correlates just those
   signals (plus their fanin boundary) — the classic incremental-sweep
   move that lets a function-preserving edit collapse back out;
3. matching store facts become candidate constants/equivalences, fed to
   :func:`repro.core.sweep.sat_sweep` with ``constants_first=False`` —
   pairs merge first (taught to the engine as equivalence clauses), so
   a deep constant then reduces by propagation instead of a fresh CDCL
   proof.  Every candidate is **proved on the requesting circuit**
   before it is merged;
4. after a round that merged something, digests are recomputed on the
   reduced circuit and deeper facts get their chance;
5. matching stored lemmas are re-proved on the final (reduced) circuit
   with a small budget and handed back for ``WorkerJob.seed_lemmas``;
6. candidates the solver *refutes* are evicted from the store
   (:meth:`~repro.inc.store.KnowledgeStore.evict`) — a refuted exact
   digest match means tampering or a hash collision, and the eviction
   counter is the corruption alarm CI watches.

Because every merge and every seeded lemma carries its own fresh proof,
the reduced circuit is equivalence-preserving regardless of what the
store contained: UNSAT on the reduced circuit implies UNSAT on the
original, and a SAT model maps back input-for-input (sweeps preserve
input order).  The scheduler still re-certifies mapped SAT models
against the *original* circuit before publishing — a belt on top of
these braces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..circuit.netlist import Circuit, lit_not
from ..core.sweep import SweepResult, sat_sweep
from ..csat.engine import CSatEngine
from ..csat.options import SolverOptions
from ..obs.metrics import default_registry
from ..result import Limits, SAT, UNSAT
from ..serve.fingerprint import cone_keys
from .certify import ConeCertifier
from ..sim.correlation import CorrelationSet, find_correlations
from .store import KIND_CONST, KIND_EQUIV, KIND_LEMMA, KnowledgeStore

#: Facts about cones shallower than this are cheaper to re-derive than
#: to store and replay.
MIN_CONE_DEPTH = 2

#: The local re-sweep looks at changed nodes within this many levels of
#: unchanged structure (the changed *frontier*).  An edit's fanout cone
#: is "changed" all the way to the outputs, but collapsing the few
#: frontier nodes realigns that whole cone at the next rebuild — so the
#: deep part never needs local attention.
LOCAL_FRONTIER_DEPTH = 3

#: Skip the local pass when the frontier region is larger than this —
#: the query is not a near-duplicate and the incremental machinery
#: would just be a slow full sweep.
MAX_LOCAL_REGION = 256

#: Caps keeping one pre-pass bounded on fact-rich stores.
MAX_CANDIDATES = 1024
MAX_SEED_LEMMAS = 128
MAX_ROUNDS = 3


def _inc_counter(name: str, help_text: str, amount: int = 1) -> None:
    registry = default_registry()
    if registry is not None and amount:
        registry.counter(name, help_text).inc(amount)


def _depths(circuit: Circuit) -> Dict[int, int]:
    """AND-node depth (1 = AND of PIs), one topological pass."""
    depth: Dict[int, int] = {}
    for n in circuit.and_nodes():
        f0, f1 = circuit.fanins(n)
        depth[n] = 1 + max(depth.get(f0 >> 1, 0), depth.get(f1 >> 1, 0))
    return depth


# ----------------------------------------------------------------------
# Absorbing proven facts
# ----------------------------------------------------------------------

def absorb_sweep(store: KnowledgeStore, circuit: Circuit,
                 result: SweepResult, min_depth: int = MIN_CONE_DEPTH,
                 max_lemmas: int = MAX_SEED_LEMMAS,
                 note_seen: bool = True,
                 keys: Optional[Dict[int, str]] = None) -> Dict[str, int]:
    """Bank a sweep's proven facts, keyed by cone digest.

    ``result`` must come from sweeping ``circuit`` itself (substitutions
    and lemmas are in its node ids).  Everything stored was proven by
    the sweep engine on the bare circuit, so each fact is portable to
    any circuit containing a cone with the same digest — where it will
    be re-proved anyway before being acted on.  With ``note_seen`` both
    the original and the reduced circuit's digests join the seen set
    (the reduced structure is what later queries collapse toward).
    ``keys`` are ``cone_keys(circuit)`` when the caller already has them.
    """
    if keys is None:
        keys = cone_keys(circuit)
    depths = _depths(circuit)
    counts = {"consts": 0, "equivs": 0, "lemmas": 0}
    const_nodes: List[int] = []
    for node, rep in sorted(result.substitutions.items()):
        digest = keys.get(node)
        if digest is None:
            continue
        if rep in (0, 1):
            if depths.get(node, 0) >= min_depth:
                const_nodes.append(node)
            continue  # banked below, deepest first
        # Equivalences are banked at any depth: replaying one merges two
        # whole cones structurally, which is what collapses the deep
        # cones above them back onto base digests — the step the
        # constants depend on.
        rep_digest = keys.get(rep >> 1)
        if rep_digest is None or rep_digest == digest:
            continue
        if store.add_equiv(rep_digest, digest, bool(rep & 1)):
            counts["equivs"] += 1
    const_nodes.sort(key=lambda n: -depths.get(n, 0))
    for node in const_nodes:
        if store.add_const(keys[node], result.substitutions[node]):
            counts["consts"] += 1
    for clause in result.lemmas[:max_lemmas]:
        lits = []
        for lit in clause:
            node = lit >> 1
            digest = keys.get(node)
            if digest is None or depths.get(node, 0) < min_depth:
                break  # PI / constant / shallow cone: not portable
            lits.append((digest, lit & 1))
        else:
            if lits and store.add_lemma(lits):
                counts["lemmas"] += 1

    # Second key set: the *pairs-merged view*.  A near-duplicate query
    # realigns (phase 1 of the pre-pass) by merging duplicate cones —
    # which lands it on the structure of ``circuit`` with the pair
    # substitutions applied, whose digests differ from the original's
    # above every merged pair.  Re-key the constants and lemmas there so
    # the realigned query still finds them.
    pair_subst = {n: rep for n, rep in result.substitutions.items()
                  if rep not in (0, 1)}
    view_keys: Dict[str, str] = {}
    if pair_subst:
        view, view_map = _apply_substitutions(circuit, pair_subst)
        vkeys = cone_keys(view)

        def view_key(node: int) -> Optional[Tuple[str, int]]:
            """(digest, phase) of an original node in the view."""
            vlit = view_map[node]
            vdigest = vkeys.get(vlit >> 1)
            if vdigest is None:
                return None
            return vdigest, vlit & 1

        for node in const_nodes:
            vk = view_key(node)
            if vk is not None and vk[0] != keys[node]:
                if store.add_const(vk[0],
                                   result.substitutions[node] ^ vk[1]):
                    counts["consts"] += 1
        for clause in result.lemmas[:max_lemmas]:
            lits = []
            for lit in clause:
                node = lit >> 1
                if depths.get(node, 0) < min_depth:
                    break
                vk = view_key(node)
                if vk is None:
                    break
                lits.append((vk[0], (lit & 1) ^ vk[1]))
            else:
                if lits and store.add_lemma(lits):
                    counts["lemmas"] += 1
        view_keys = vkeys
    if note_seen:
        seen = set(keys.values())
        seen.update(cone_keys(result.circuit).values())
        seen.update(view_keys.values())
        counts["seen"] = store.note_seen(seen)
    return counts


def _apply_substitutions(circuit: Circuit, subst: Dict[int, int]
                         ) -> Tuple[Circuit, List[int]]:
    """Rebuild with only ``subst`` applied; return (view, node -> lit).

    The rebuild mirrors :func:`repro.core.sweep.sat_sweep`'s (strashed,
    inputs recreated 1:1) so the resulting structure is exactly what a
    near-duplicate query converges to after merging those same pairs.
    """
    out = Circuit(circuit.name + ".view", strash=True)
    node_map: List[int] = [0] * circuit.num_nodes

    def resolve(lit: int) -> int:
        node = lit >> 1
        seen = set()
        while node in subst and node not in seen:
            seen.add(node)
            lit = subst[node] ^ (lit & 1)
            node = lit >> 1
        return lit

    def mapped(lit: int) -> int:
        lit = resolve(lit)
        return node_map[lit >> 1] ^ (lit & 1)

    for pi in circuit.inputs:
        node_map[pi] = out.add_input(circuit.name_of(pi))
    for n in circuit.and_nodes():
        if n in subst:
            continue
        f0, f1 = circuit.fanins(n)
        node_map[n] = out.add_and(mapped(f0), mapped(f1))
    for n in sorted(subst):
        node_map[n] = mapped(2 * n)
    return out, node_map


# ----------------------------------------------------------------------
# The pre-pass
# ----------------------------------------------------------------------

@dataclass
class PrepassOutcome:
    """What the incremental pre-pass produced for one query."""

    original: Circuit
    circuit: Circuit                    # reduced (== original when idle)
    #: Proven clauses in *reduced-circuit* literals, ready for
    #: ``WorkerJob.seed_lemmas``.
    seed_lemmas: List[List[int]] = field(default_factory=list)
    sweep: Optional[SweepResult] = None     # last round's sweep
    rounds: int = 0
    cone_hits: int = 0
    cone_misses: int = 0
    equivs_replayed: int = 0
    lemmas_replayed: int = 0
    rejected: int = 0
    undecided: int = 0
    local_merged: int = 0               # changed-region merges (no fact)
    seconds: float = 0.0

    @property
    def useful(self) -> bool:
        """Did the store change anything worth dispatching differently?"""
        return (self.equivs_replayed > 0 or self.local_merged > 0
                or bool(self.seed_lemmas))

    def map_model(self, model: Optional[Dict[int, Any]]
                  ) -> Dict[int, bool]:
        """Reduced-circuit SAT model -> original-circuit input assignment.

        Sweeps recreate inputs first, 1:1 with the original input order,
        so inputs correspond by position.  Gate values are left to
        simulation (the certifier replays inputs through the original
        circuit anyway).
        """
        model = model or {}
        return {orig: bool(model.get(red, 0))
                for orig, red in zip(self.original.inputs,
                                     self.circuit.inputs)}

    def as_dict(self) -> Dict[str, Any]:
        out = {"rounds": self.rounds,
               "cone_hits": self.cone_hits,
               "cone_misses": self.cone_misses,
               "equivs_replayed": self.equivs_replayed,
               "lemmas_replayed": self.lemmas_replayed,
               "local_merged": self.local_merged,
               "rejected": self.rejected,
               "undecided": self.undecided,
               "seed_lemmas": len(self.seed_lemmas),
               "seconds": round(self.seconds, 6)}
        out["gates_before"] = self.original.num_ands
        out["gates_after"] = self.circuit.num_ands
        return out


def incremental_prepass(circuit: Circuit, store: KnowledgeStore,
                        per_candidate_conflicts: int = 100,
                        lemma_conflicts: int = 2000,
                        max_candidates: int = MAX_CANDIDATES,
                        max_lemmas: int = MAX_SEED_LEMMAS,
                        max_rounds: int = MAX_ROUNDS,
                        options: Optional[SolverOptions] = None,
                        seed: int = 1,
                        absorb: bool = True) -> PrepassOutcome:
    """Look up, re-prove, and merge stored facts for one query.

    Three phases, cheapest knowledge first:

    1. **Realign** (up to ``max_rounds`` rounds): merge same-digest
       duplicate cones, stored *equivalences*, and the changed-frontier
       pairs a local edit introduced.  These proofs are shallow and
       cheap (budget ``per_candidate_conflicts``); each rebuild recovers
       more of the base's digests.
    2. **Lemma ladder**: re-prove matched stored lemmas on the realigned
       circuit, shallow to deep, in one engine with a real budget
       (``lemma_conflicts``) — each proof inherits the learned clauses
       of the previous ones, the same ladder that derived them cheaply
       in the first place.
    3. **Constant harvest**: with the proven lemmas seeded into the
       sweep engine, stored constant facts (a miter's output bits, the
       deepest and individually hardest proofs) reduce to propagation
       and merge away.

    Lookup is positional only (:func:`cone_keys`); phases 2 and 3 run
    only when it finds a fact on the realigned circuit.

    Returns a :class:`PrepassOutcome` whose ``circuit`` is the reduced
    query and whose ``seed_lemmas`` are proven clauses in
    reduced-circuit literals.  With an empty store this is a single
    O(gates) hashing pass — the cold path stays cheap.  With
    ``absorb=True`` newly proven merges flow back into the store, so a
    stream of revisions keeps enriching it.
    """
    start = time.perf_counter()
    options = options or SolverOptions(implicit_learning=True)
    outcome = PrepassOutcome(original=circuit, circuit=circuit)
    current = circuit
    keyed = None        # the circuit ``keys`` and ``node_of`` describe
    facts: Dict = {}
    evicted = False     # a fact left the store since ``facts`` was read

    # ------------------------------------------------------- phase 1
    for round_no in range(max_rounds):
        keys = cone_keys(current)
        node_of, duplicates = _index_digests(keys)
        keyed = current
        facts = store.lookup(node_of)
        evicted = False
        if round_no == 0:
            _count_hits(outcome, facts, node_of)

        pair_classes: List[List[Tuple[int, int]]] = []
        pair_source: Dict[Tuple[int, int, bool], Tuple] = {}
        for key, record in facts.items():
            if key[0] != KIND_EQUIV:
                continue
            if len(pair_classes) >= max_candidates:
                break
            na, nb = node_of.get(key[1]), node_of.get(key[2])
            if na is None or nb is None or na == nb:
                continue
            anti = bool(key[3])
            lo, hi = (na, nb) if na < nb else (nb, na)
            pair_classes.append([(lo, 0), (hi, 1 if anti else 0)])
            pair_source[(lo, hi, anti)] = key

        # Structurally identical cones are functionally equal; merging
        # them needs no stored fact (and the re-proof is near-free).
        for digest, nodes in duplicates.items():
            pair_classes.append([(n, 0) for n in nodes])

        # Changed frontier: an edit marks its whole fanout cone as
        # never-seen, but only the first few levels above unchanged
        # structure are *locally* new — collapse those (one simulation
        # pass + cheap local proofs) and the rest of the cone realigns
        # with the base's digests at the rebuild.  Pairs only: locally
        # guessed *constants* can be arbitrarily hard to prove, and the
        # deep ones arrive as store facts in phase 3 anyway.
        if store.num_seen:
            unseen = {n for n in keys if not store.seen(keys[n])}
            cdepth: Dict[int, int] = {}
            region: Set[int] = set()
            for n in sorted(unseen):    # node ids are topological
                f0, f1 = current.fanins(n)
                d = 1 + max(cdepth.get(f0 >> 1, 0),
                            cdepth.get(f1 >> 1, 0))
                cdepth[n] = d
                if d <= LOCAL_FRONTIER_DEPTH:
                    region.add(n)
                    region.add(f0 >> 1)   # unchanged boundary signals:
                    region.add(f1 >> 1)   # the merge targets
            region.discard(0)
            if region and len(region) <= MAX_LOCAL_REGION:
                local = find_correlations(
                    current, seed=seed + round_no,
                    candidate_nodes=sorted(region))
                pair_classes.extend(
                    cls for cls in local.classes
                    if all(n != 0 for n, _ in cls)
                    and any(n in unseen for n, _ in cls))

        if not pair_classes:
            break
        pair_classes.sort(key=lambda cls: max(n for n, _ in cls))
        certifier = ConeCertifier(current)
        sweep = sat_sweep(current,
                          correlations=CorrelationSet(classes=pair_classes),
                          options=options,
                          per_candidate_conflicts=per_candidate_conflicts,
                          certify=certifier.clause)
        outcome.rounds = round_no + 1
        outcome.sweep = sweep
        outcome.undecided += sweep.undecided
        replayed = sum(1 for lo, hi, anti in pair_source
                       if hi in sweep.substitutions)
        merged = sweep.merged_pairs + sweep.merged_constants
        replayed = min(replayed, merged)
        outcome.equivs_replayed += replayed
        outcome.local_merged += merged - replayed
        for n1, n2, anti in sweep.refuted_pairs:
            lo, hi = (n1, n2) if n1 < n2 else (n2, n1)
            key = pair_source.get((lo, hi, anti))
            if key is not None and store.evict(key, "refuted on replay"):
                outcome.rejected += 1
                evicted = True
        if not merged:
            break
        if absorb:
            # Bank the merges this round proved (new cones a local edit
            # introduced) so the next revision in the stream starts
            # warmer still.  ``note_seen=False``: a half-realigned
            # transient must not enter the seen set, or the changed
            # frontier goes dark for the next round and the next query.
            absorb_sweep(store, current, sweep, note_seen=False,
                         keys=keys)
        current = sweep.circuit

    # ------------------------------------------------------- phase 2
    seeds: List[List[int]] = []
    if not len(store):
        facts = {}
    elif keyed is not current or evicted:
        # Looked up again: phase 1 merged, absorbed or evicted since its
        # last lookup.  Otherwise that lookup stands: repeating it would
        # return the same facts and touch them in the same LRU order.
        if keyed is not current:
            keys = cone_keys(current)
            node_of, _ = _index_digests(keys)
        facts = store.lookup(node_of)
    if facts:
        certifier = ConeCertifier(current)
        seeds = _replay_lemmas(current, facts, node_of, max_lemmas,
                               lemma_conflicts, options, store, outcome,
                               certifier)

        # --------------------------------------------------- phase 3
        const_classes: List[List[Tuple[int, int]]] = []
        const_source: Dict[Tuple[int, int], Tuple] = {}
        for key, record in facts.items():
            if key[0] != KIND_CONST or len(const_classes) >= max_candidates:
                continue
            node = node_of.get(key[1])
            value = int(record["value"])
            if node is not None and (node, value) not in const_source:
                const_classes.append([(0, 0), (node, value)])
                const_source[(node, value)] = key

        if const_classes:
            const_classes.sort(key=lambda cls: max(n for n, _ in cls))
            sweep = sat_sweep(current,
                              correlations=CorrelationSet(
                                  classes=const_classes),
                              options=options,
                              per_candidate_conflicts=per_candidate_conflicts,
                              seed_lemmas=seeds,
                              certify=certifier.clause)
            outcome.sweep = sweep
            outcome.undecided += sweep.undecided
            replayed = min(
                sum(1 for node, value in const_source
                    if sweep.substitutions.get(node) == value),
                sweep.merged_constants)
            outcome.equivs_replayed += replayed
            outcome.local_merged += (sweep.merged_pairs
                                     + sweep.merged_constants - replayed)
            for node, value in sweep.refuted_constants:
                key = const_source.get((node, value))
                if key is not None and \
                        store.evict(key, "refuted on replay"):
                    outcome.rejected += 1
            if sweep.merged_constants or sweep.merged_pairs:
                if absorb:
                    absorb_sweep(store, current, sweep, note_seen=False,
                                 keys=keys)
                # The seeds were proven on the pre-merge circuit; follow
                # them through the rebuild (constants shorten or satisfy
                # a clause; satisfied clauses drop out).
                seeds = _map_clauses(seeds, sweep.node_map)
                current = sweep.circuit

    outcome.circuit = current
    outcome.seed_lemmas = seeds
    outcome.lemmas_replayed = len(seeds)
    _inc_counter("repro_inc_equivs_replayed_total",
                 "Stored equivalences/constants re-proved and merged",
                 outcome.equivs_replayed)
    _inc_counter("repro_inc_lemmas_replayed_total",
                 "Stored lemmas re-proved and seeded into solves",
                 outcome.lemmas_replayed)
    outcome.seconds = time.perf_counter() - start
    return outcome


def _index_digests(keys: Dict[int, str]):
    """First node per digest, plus the same-digest duplicate chains."""
    node_of: Dict[str, int] = {}
    duplicates: Dict[str, List[int]] = {}
    for node in sorted(keys):
        digest = keys[node]
        if digest in node_of:
            duplicates.setdefault(digest, [node_of[digest]]).append(node)
        else:
            node_of[digest] = node
    return node_of, duplicates


def _map_clauses(clauses: List[List[int]],
                 node_map: List[int]) -> List[List[int]]:
    """Translate proven clauses through a sweep's node map.

    A literal mapped to constant TRUE satisfies its clause (dropped); a
    literal mapped to constant FALSE is deleted from it.  An emptied
    clause would mean the sweep proved the circuit's constraints
    contradictory — not expressible here, so it is dropped defensively.
    """
    out: List[List[int]] = []
    for clause in clauses:
        mapped: List[int] = []
        satisfied = False
        for lit in clause:
            new = node_map[lit >> 1] ^ (lit & 1)
            if new == 1:        # constant TRUE
                satisfied = True
                break
            if new == 0:        # constant FALSE
                continue
            mapped.append(new)
        if not satisfied and mapped:
            out.append(mapped)
    return out


def _count_hits(outcome: PrepassOutcome, facts, node_of) -> None:
    hit_digests = set()
    for key in facts:
        if key[0] == KIND_EQUIV:
            digests = key[1:3]
        elif key[0] == KIND_CONST:
            digests = (key[1],)
        else:
            digests = tuple(d for d, _ in key[1])
        for digest in digests:
            if digest in node_of:
                hit_digests.add(digest)
    outcome.cone_hits = len(hit_digests)
    outcome.cone_misses = len(node_of) - len(hit_digests)
    _inc_counter("repro_inc_cone_hits",
                 "Query cone digests matched by stored facts",
                 outcome.cone_hits)
    _inc_counter("repro_inc_cone_misses",
                 "Query cone digests with no stored fact",
                 outcome.cone_misses)


def _replay_lemmas(circuit: Circuit, facts: Dict, node_of: Dict[str, int],
                   max_lemmas: int, budget: int, options: SolverOptions,
                   store: KnowledgeStore, outcome: PrepassOutcome,
                   certifier: Optional[ConeCertifier] = None
                   ) -> List[List[int]]:
    """Re-prove candidate lemmas on the circuit they will seed.

    A stored lemma was proven on some other bare circuit; cones matching
    by digest makes it extremely likely — but not certain — to hold
    here.  Each clause gets one budgeted refutation probe: assuming all
    its literals false must be UNSAT.  Probes run shallow-to-deep in one
    engine, so every proof inherits the learned clauses of the previous
    ones — the same ladder that made them cheap to derive originally.
    Refuted clauses are evicted (corruption/collision); budget-outs are
    skipped.
    """
    candidates: List[Tuple[Tuple, List[int]]] = []
    for key in facts:
        if key[0] != KIND_LEMMA:
            continue
        lits = []
        for digest, neg in key[1]:
            node = node_of.get(digest)
            if node is None:
                break
            lits.append(2 * node + neg)
        else:
            candidates.append((key, lits))
        if len(candidates) >= max_lemmas:
            break
    if not candidates:
        return []
    candidates.sort(key=lambda item: max(l >> 1 for l in item[1]))
    engine = None
    limits = Limits(max_conflicts=budget)
    seeds: List[List[int]] = []
    for key, lits in candidates:
        # Exhaustive cone certification first (exact and cheap for the
        # small cones most lemmas live on); SAT probe as fallback.
        verdict = certifier.clause(lits) if certifier is not None else None
        if verdict is None:
            if engine is None:
                engine = CSatEngine(circuit, options)
                for clause in seeds:
                    engine.add_learned_clause(list(clause))
            probe = engine.solve(assumptions=[lit_not(l) for l in lits],
                                 limits=limits)
            if probe.status == SAT:
                verdict = False
            elif probe.status == UNSAT:
                verdict = True
        if verdict is False:
            if store.evict(key, "lemma refuted on replay"):
                outcome.rejected += 1
            continue
        if verdict is not True:
            outcome.undecided += 1
            continue
        seeds.append(list(lits))
        if engine is not None:
            engine.add_learned_clause(list(lits))
    return seeds
