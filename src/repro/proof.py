"""DRUP proof logging and checking.

Both solvers can emit DRUP-style unsatisfiability proofs: the sequence of
learned clauses (each being RUP — *reverse unit propagation* — with respect
to everything before it), clause deletions, and a final empty clause.
:func:`check_drup` replays a proof against the original formula with an
independent watched-literal unit propagator, so an UNSAT answer can be
trusted without trusting the solver.

For the circuit solver the original formula is the Tseitin encoding of the
circuit plus the objective units (``var = node + 1``); its learned gates
translate literal-for-literal, which makes the circuit engine's reasoning
checkable by pure CNF machinery — a strong cross-validation of the gate
BCP, the implication-graph reconstruction and the 1UIP analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cnf.formula import CnfFormula

ADD = "a"
DELETE = "d"


@dataclass
class ProofLog:
    """An append-only DRUP proof: ('a'|'d', clause-in-DIMACS-literals)."""

    steps: List[Tuple[str, Tuple[int, ...]]] = field(default_factory=list)
    complete: bool = False  # an empty 'a' step was recorded

    def add(self, dimacs_lits: Sequence[int]) -> None:
        self.steps.append((ADD, tuple(dimacs_lits)))
        if not dimacs_lits:
            self.complete = True

    def delete(self, dimacs_lits: Sequence[int]) -> None:
        self.steps.append((DELETE, tuple(dimacs_lits)))

    def __len__(self) -> int:
        return len(self.steps)

    def to_text(self) -> str:
        """Standard DRUP text ('d' prefix for deletions, 0-terminated)."""
        lines = []
        for kind, lits in self.steps:
            prefix = "d " if kind == DELETE else ""
            lines.append(prefix + " ".join(str(l) for l in lits) + " 0")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> "ProofLog":
        """Parse DRUP text, the inverse of :meth:`to_text`.

        One clause per line, terminated by ``0``; lines starting with
        ``c`` are comments.  Raises :class:`ValueError` on a malformed
        line.
        """
        log = cls()
        for line_no, line in enumerate(text.splitlines(), 1):
            tokens = line.split()
            if not tokens or tokens[0].startswith("c"):
                continue
            delete = tokens[0] == "d"
            if delete:
                tokens = tokens[1:]
            try:
                lits = [int(t) for t in tokens]
            except ValueError:
                raise ValueError("line {}: malformed proof line {!r}".format(
                    line_no, line.strip())) from None
            if not lits or lits[-1] != 0 or 0 in lits[:-1]:
                raise ValueError("line {}: clause must end with a single 0"
                                 .format(line_no))
            if delete:
                log.delete(lits[:-1])
            else:
                log.add(lits[:-1])
        return log


@dataclass
class ProofCheckResult:
    ok: bool
    steps_checked: int = 0
    reason: str = ""


def _codes(dimacs_lits: Iterable[int]) -> List[int]:
    """DIMACS literals as literal codes: ``2 * var``, plus 1 if negated."""
    return [l + l if l > 0 else 1 - l - l for l in dimacs_lits]


class _WatchedDb:
    """Clause database with two watched literals per clause.

    Clauses are stored as sets of literal codes (duplicates merged).
    Clauses of two or more literals are watched on their first two
    literals; unit clauses live in ``units`` and empty ones are only
    counted.  Each RUP check starts from an empty assignment and undoes
    its trail afterwards, so no state survives between checks except the
    watch positions, which need no restoring.
    """

    def __init__(self, num_vars: int):
        size = 2 * num_vars + 2
        self.clauses: List[Optional[List[int]]] = []
        self.watches: List[List[int]] = [[] for _ in range(size)]
        self.true = [False] * size      # indexed by literal code
        self.units: Dict[int, int] = {}  # clause index -> literal code
        self.empty = 0

    def store(self, codes: List[int]) -> int:
        clause = list(dict.fromkeys(codes))
        index = len(self.clauses)
        self.clauses.append(clause)
        if len(clause) >= 2:
            self.watches[clause[0]].append(index)
            self.watches[clause[1]].append(index)
        elif clause:
            self.units[index] = clause[0]
        else:
            self.empty += 1
        return index

    def remove(self, index: int) -> None:
        # Watch entries of a removed clause are dropped lazily, the next
        # time propagate() visits them.
        if len(self.clauses[index]) == 1:
            del self.units[index]
        self.clauses[index] = None

    def is_rup(self, lemma: List[int]) -> bool:
        """Does assigning the negation of ``lemma`` propagate a conflict?"""
        if self.empty:
            return True
        true = self.true
        trail: List[int] = []
        try:
            for lit in lemma:
                if true[lit]:
                    return True  # lemma holds x and ~x: a tautology
                if not true[lit ^ 1]:
                    true[lit ^ 1] = True
                    trail.append(lit ^ 1)
            for lit in self.units.values():
                if true[lit ^ 1]:
                    return True
                if not true[lit]:
                    true[lit] = True
                    trail.append(lit)
            return self.propagate(trail)
        finally:
            for lit in trail:
                true[lit] = False

    def propagate(self, trail: List[int]) -> bool:
        """Unit propagation over the watches; True iff a conflict arises.

        ``trail`` holds the true literals and is extended in place.
        """
        clauses, watches, true = self.clauses, self.watches, self.true
        head = 0
        while head < len(trail):
            false_lit = trail[head] ^ 1
            head += 1
            ws = watches[false_lit]
            n = len(ws)
            i = j = 0
            while i < n:
                index = ws[i]
                i += 1
                clause = clauses[index]
                if clause is None:
                    continue  # deleted: drop the watch entry
                other = clause[0]
                if other == false_lit:
                    other = clause[1]
                    clause[0] = other
                    clause[1] = false_lit
                if true[other]:
                    ws[j] = index
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if not true[lit ^ 1]:
                        clause[1] = lit
                        clause[k] = false_lit
                        watches[lit].append(index)
                        break
                else:
                    ws[j] = index
                    j += 1
                    if true[other ^ 1]:
                        del ws[j:i]
                        return True
                    true[other] = True
                    trail.append(other)
            del ws[j:]
        return False


def check_drup(formula: CnfFormula, proof: ProofLog,
               require_empty: bool = True) -> ProofCheckResult:
    """Verify a DRUP proof against a formula.

    Every added clause must be RUP with respect to the original clauses
    plus previously added (and not yet deleted) proof clauses; with
    ``require_empty`` the proof must end by deriving the empty clause
    (i.e. actually establish unsatisfiability).  Clauses are sets:
    repeated literals count once.
    """
    num_vars = max(
        [formula.num_vars]
        + [abs(l) for clause in formula.clauses for l in clause]
        + [abs(l) for _, lits in proof.steps for l in lits])
    db = _WatchedDb(num_vars)
    for clause in formula.clauses:
        db.store(_codes(clause))
    live: Dict[Tuple[int, ...], List[int]] = {}
    for index, (kind, lits) in enumerate(proof.steps):
        codes = _codes(lits)
        key = tuple(sorted(set(codes)))
        if kind == ADD:
            if not db.is_rup(codes):
                return ProofCheckResult(
                    False, index,
                    "step {}: clause {} is not RUP".format(index, list(lits)))
            if not codes:
                return ProofCheckResult(True, index + 1)
            live.setdefault(key, []).append(db.store(codes))
        else:
            slots = live.get(key)
            if slots:
                db.remove(slots.pop())
            # Deleting an unknown clause is tolerated (solvers may delete
            # original clauses the checker chose to keep): soundness is
            # unaffected, only completeness of later RUP checks could be,
            # and then the check fails loudly.
    if require_empty:
        return ProofCheckResult(False, len(proof.steps),
                                "proof never derives the empty clause")
    return ProofCheckResult(True, len(proof.steps))
