"""Golden search trajectories of the circuit CDCL engine.

A change to the engine's data structures (heaps, BCP inner loop, stats
bookkeeping) that is meant to be a pure speed-up must leave the search
the same, decision for decision.  These tests pin the effort counters
of whole solves, per preset, on small inputs that finish well before
the first VSIDS activity rescale, so any change in decision order,
propagation order or learning shows up as a changed number.  Totals
can survive a reordering, so each run also pins the SHA-1 of its whole
search event stream (decisions, learned gates, conflicts, sub-problems,
restarts and clause-database reductions, in order).

If a change *intends* to alter the search, re-record the table from
the new code and say why in the change description.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.circuit.miter import miter
from repro.circuit.rewrite import optimize
from repro.core.solver import CircuitSolver
from repro.csat.options import preset
from repro.gen.iscas import equiv_miter, opt_miter
from repro.gen.random_circuit import random_dag
from repro.gen.velev import vliw_like
from repro.obs import Tracer
from repro.proof import ProofLog


def _random_miter(seed: int):
    dag = random_dag(14, 250, num_outputs=3, seed=seed)
    return miter(dag, optimize(dag, seed=seed))


INPUTS = {
    "c432.equiv": lambda: equiv_miter("c432"),
    "c2670.equiv": lambda: equiv_miter("c2670"),
    "c432.opt": lambda: opt_miter("c432"),
    "vliw2w3": lambda: vliw_like(2, width=3, cnf_vars=100),
    "rand_miter2": lambda: _random_miter(2),
    "rand_dag3": lambda: random_dag(14, 300, num_outputs=4, seed=3),
}

PRESETS = ("csat", "csat-jnode", "implicit", "explicit")

COUNTERS = ("conflicts", "decisions", "propagations", "implications",
            "learned_clauses", "jnode_decisions", "correlation_decisions")

#: (input, preset) -> (status, *COUNTERS, DRUP lines or None for SAT).
GOLDEN = {
    ('c432.equiv', 'csat'):
        ('UNSAT', 79, 405, 3984, 3616, 78, 0, 0, 80),
    ('c432.equiv', 'csat-jnode'):
        ('UNSAT', 95, 294, 4615, 4375, 94, 292, 0, 96),
    ('c432.equiv', 'implicit'):
        ('UNSAT', 76, 287, 3464, 3184, 75, 275, 33, 77),
    ('c432.equiv', 'explicit'):
        ('UNSAT', 89, 227, 4939, 4788, 177, 0, 0, 179),
    ('c2670.equiv', 'csat'):
        ('UNSAT', 297, 669, 21056, 19437, 296, 0, 0, 298),
    ('c2670.equiv', 'csat-jnode'):
        ('UNSAT', 147, 1166, 12616, 10556, 146, 1164, 0, 148),
    ('c2670.equiv', 'implicit'):
        ('UNSAT', 151, 222, 5108, 4690, 150, 129, 106, 152),
    ('c2670.equiv', 'explicit'):
        ('UNSAT', 123, 1438, 20662, 18064, 246, 1136, 71, 248),
    ('c432.opt', 'csat'):
        ('UNSAT', 80, 370, 3955, 3582, 79, 0, 0, 81),
    ('c432.opt', 'csat-jnode'):
        ('UNSAT', 91, 287, 4592, 4342, 90, 285, 0, 92),
    ('c432.opt', 'implicit'):
        ('UNSAT', 76, 297, 3654, 3357, 75, 287, 31, 77),
    ('c432.opt', 'explicit'):
        ('UNSAT', 78, 194, 4794, 4657, 155, 0, 0, 157),
    ('vliw2w3', 'csat'):
        ('SAT', 178, 268, 25802, 30638, 178, 0, 0, None),
    ('vliw2w3', 'csat-jnode'):
        ('SAT', 194, 296, 29986, 36378, 194, 295, 0, None),
    ('vliw2w3', 'implicit'):
        ('SAT', 194, 296, 29986, 36378, 194, 295, 0, None),
    ('vliw2w3', 'explicit'):
        ('SAT', 185, 1275, 50264, 52554, 233, 1069, 12, None),
    ('rand_miter2', 'csat'):
        ('UNSAT', 49, 113, 6116, 6248, 48, 0, 0, 50),
    ('rand_miter2', 'csat-jnode'):
        ('UNSAT', 51, 110, 6112, 6244, 50, 107, 0, 52),
    ('rand_miter2', 'implicit'):
        ('UNSAT', 57, 92, 5261, 5462, 56, 48, 49, 58),
    ('rand_miter2', 'explicit'):
        ('UNSAT', 85, 206, 8571, 8796, 244, 8, 7, 246),
    ('rand_dag3', 'csat'):
        ('SAT', 6, 25, 683, 680, 6, 0, 0, None),
    ('rand_dag3', 'csat-jnode'):
        ('SAT', 4, 19, 644, 646, 4, 16, 0, None),
    ('rand_dag3', 'implicit'):
        ('SAT', 12, 31, 1475, 1532, 12, 17, 5, None),
    ('rand_dag3', 'explicit'):
        ('SAT', 31, 130, 5664, 5480, 149, 9, 0, None),
}

#: (input, preset) -> SHA-1 of the run's SEARCH_EVENTS stream.
GOLDEN_EVENTS = {
    ('c432.equiv', 'csat'):
        'ad4a5c5b4121614e49c4efad0a2993990e0c04ec',
    ('c432.equiv', 'csat-jnode'):
        'f8e1204f53da3f6ed7b189e370cde29e3ae8f6ad',
    ('c432.equiv', 'implicit'):
        '73eec707e5e61355360470af050aaaeeb0b8d0fb',
    ('c432.equiv', 'explicit'):
        '0888b90247a6b7c205f5b9fc4253aae00b69f8da',
    ('c2670.equiv', 'csat'):
        '201c0242b1e5b83d1a3cee9a9ee15dbdc4a3f6be',
    ('c2670.equiv', 'csat-jnode'):
        '7a950c358312ec8e3a67506d501402cf50b62c5f',
    ('c2670.equiv', 'implicit'):
        '5e0c208833b61cc8052fa374633dda56ecc82a7f',
    ('c2670.equiv', 'explicit'):
        'a7424f7d9623ad3147ef811c6524ccb0195c87e2',
    ('c432.opt', 'csat'):
        '92d21b8182b11d877da6a08d4a9e64f11f33030f',
    ('c432.opt', 'csat-jnode'):
        '5478611f5020228b9a9034d277e141e1ca45cba5',
    ('c432.opt', 'implicit'):
        'ec4c2d4254c6702bd0679da26ef34b877879359d',
    ('c432.opt', 'explicit'):
        'b31024cb0bbc70cacab29644cd8b523a637ec327',
    ('vliw2w3', 'csat'):
        '7199c5766cf839ff6ba95bb770563913bbeed14f',
    ('vliw2w3', 'csat-jnode'):
        'be5c7f54905731253b14b66b9250502c66f71a8b',
    ('vliw2w3', 'implicit'):
        'be5c7f54905731253b14b66b9250502c66f71a8b',
    ('vliw2w3', 'explicit'):
        '4d306672eb420f8683b2b4a69b0aab6070ea2717',
    ('rand_miter2', 'csat'):
        '75346d534330d83a5aa179e9b97c93cb6fb3303d',
    ('rand_miter2', 'csat-jnode'):
        '0f5acc89d84f1294c2dc803809a3db403c634a04',
    ('rand_miter2', 'implicit'):
        '19d1c570c21f27e1c213527d76de1519d0362b4a',
    ('rand_miter2', 'explicit'):
        '4512ea680d9bfc251fe227fde6f6bacfc10f3194',
    ('rand_dag3', 'csat'):
        '613e2f365379e684fc5d0dc39cf031436ee0ad49',
    ('rand_dag3', 'csat-jnode'):
        '2db268cb158ea7890be1be082f389e1231d18cf6',
    ('rand_dag3', 'implicit'):
        '01173a32f1033827ba731afe01681d816a54183e',
    ('rand_dag3', 'explicit'):
        '70e740b1d8da3204e5c4dbc0d874846e98bda81e',
}


#: Trace events that record the search itself (no timings or progress).
SEARCH_EVENTS = frozenset(("decision", "learn", "conflict", "subproblem",
                           "restart", "reduce_db"))


class EventDigest(Tracer):
    """Hashes the search events of a run, in emission order."""

    enabled = True

    def __init__(self):
        self._sha = hashlib.sha1()

    def emit(self, kind, **fields):
        if kind in SEARCH_EVENTS:
            self._sha.update(repr((kind, sorted(fields.items()))).encode())
            self._sha.update(b"\n")

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def trajectory(name: str, preset_name: str):
    circuit = INPUTS[name]()
    proof = ProofLog()
    result = CircuitSolver(circuit, preset(preset_name), proof=proof).solve()
    drup_lines = (len(proof.to_text().splitlines())
                  if result.status == "UNSAT" else None)
    return ((result.status,)
            + tuple(getattr(result.stats, key) for key in COUNTERS)
            + (drup_lines,))


def event_digest(name: str, preset_name: str) -> str:
    digest = EventDigest()
    CircuitSolver(INPUTS[name](), preset(preset_name, trace=digest)).solve()
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_trajectory_matches_golden(name):
    for preset_name in PRESETS:
        assert trajectory(name, preset_name) == GOLDEN[name, preset_name], \
            (name, preset_name)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_event_stream_matches_golden(name):
    for preset_name in PRESETS:
        assert event_digest(name, preset_name) \
            == GOLDEN_EVENTS[name, preset_name], (name, preset_name)


if __name__ == "__main__":
    # Print both tables above from the code in the current checkout.
    for name in INPUTS:
        for preset_name in PRESETS:
            print("    {!r}:\n        {!r},".format(
                (name, preset_name), trajectory(name, preset_name)))
    print()
    for name in INPUTS:
        for preset_name in PRESETS:
            print("    {!r}:\n        {!r},".format(
                (name, preset_name), event_digest(name, preset_name)))
