"""Golden search trajectories of the circuit CDCL engine.

A change to the engine's data structures (heaps, BCP inner loop, stats
bookkeeping) that is meant to be a pure speed-up must leave the search
the same, decision for decision.  These tests pin the effort counters
of whole solves, per preset, on small inputs that finish well before
the first VSIDS activity rescale, so any change in decision order,
propagation order or learning shows up as a changed number.

If a change *intends* to alter the search, re-record the table from
the new code and say why in the change description.
"""

from __future__ import annotations

import pytest

from repro.circuit.miter import miter
from repro.circuit.rewrite import optimize
from repro.core.solver import CircuitSolver
from repro.csat.options import preset
from repro.gen.iscas import equiv_miter, opt_miter
from repro.gen.random_circuit import random_dag
from repro.gen.velev import vliw_like
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


def trajectory(name: str, preset_name: str):
    circuit = INPUTS[name]()
    proof = ProofLog()
    result = CircuitSolver(circuit, preset(preset_name), proof=proof).solve()
    drup_lines = (len(proof.to_text().splitlines())
                  if result.status == "UNSAT" else None)
    return ((result.status,)
            + tuple(getattr(result.stats, key) for key in COUNTERS)
            + (drup_lines,))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_trajectory_matches_golden(name):
    for preset_name in PRESETS:
        assert trajectory(name, preset_name) == GOLDEN[name, preset_name], \
            (name, preset_name)


if __name__ == "__main__":
    # Print the table above from the code in the current checkout.
    for name in INPUTS:
        for preset_name in PRESETS:
            print("    {!r}:\n        {!r},".format(
                (name, preset_name), trajectory(name, preset_name)))
