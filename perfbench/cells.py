"""The pinned cells of the two table workloads and their answer gate.

A cell is one ``synthesize()`` call: a benchmark of the paper's suite,
an engine, a gate library and an optional gate limit.  The cell lists
are fixed here; the workload seed only changes the order of the
``table-bdd`` cells.

``answers.json`` (written by ``make_answers.py``) holds each cell's
expected status and depth, plus #SOL and the quantum-cost range for
BDD cells and the proven bound for the UNSAT-prefix cell.
:func:`check` compares one result against it and simulates every
returned circuit.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ANSWERS_PATH = os.path.join(HERE, "answers.json")
ANSWERS_FORMAT = "perfbench-answers-v1"

#: Per-cell time limit (seconds).  Every pinned cell finishes far inside
#: it; a cell that reaches it is counted as failed.
TIME_LIMIT = 60.0

#: The default tier without the rows every engine finishes in under
#: ~20 ms (toffoli, fredkin, peres, graycode4, mod5-v1_s): their timings
#: are mostly noise.
DEFAULT_TIER = ("mod5mils", "3_17", "mod5d1_s", "mod5d2_s", "rd32-v0",
                "rd32-v1", "mod5-v0", "mod5-v1", "mod5-v0_s", "decod24-v0",
                "decod24-v1", "decod24-v2", "decod24-v3", "alu_small")

#: Full-tier Table 1 rows that finish (graycode6, mod5d1, ALU-v0/v1) and
#: the Table 3 extra row 4mod5.
FULL_TIER_ROWS = ("mod5d1", "ALU-v0", "ALU-v1", "graycode6", "4mod5")

#: Solver cells left out: mod5-v1 everywhere and mod5-v0 on SWORD run
#: into the time limit, and SWORD solves 3_17 in under ~20 ms.
SOLVER_EXCLUDED = {
    "sat": ("mod5-v1",),
    "qbf": ("mod5-v1",),
    "sword": ("mod5-v1", "mod5-v0", "3_17"),
}

SOLVER_ENGINES = ("sat", "qbf", "sword")

#: Rows whose paper D is exact in this reproduction (provenance "exact").
PAPER_DEPTH = {"3_17": 6, "graycode6": 5}


def cell(benchmark: str, engine: str, kinds=("mct",),
         max_gates: Optional[int] = None) -> Dict:
    ident = f"{benchmark}/{engine}/{'+'.join(kinds)}"
    if max_gates is not None:
        ident += f"/max{max_gates}"
    return {"id": ident, "benchmark": benchmark, "engine": engine,
            "kinds": list(kinds), "max_gates": max_gates}


def bdd_cells() -> List[Dict]:
    """``table-bdd``: Table 1 MCT rows, one MCT+P row, one UNSAT prefix."""
    rows = [cell(name, "bdd") for name in DEFAULT_TIER + FULL_TIER_ROWS]
    rows.append(cell("mod5d1_s", "bdd", ("mct", "peres")))
    rows.append(cell("hwb4", "bdd", max_gates=9))
    return rows


def solver_cells() -> List[Dict]:
    """``table-solvers``: SAT, QBF and SWORD over the default tier."""
    return [cell(name, engine) for engine in SOLVER_ENGINES
            for name in DEFAULT_TIER
            if name not in SOLVER_EXCLUDED[engine]]


def workload_cells(workload: str) -> List[Dict]:
    return bdd_cells() if workload == "table-bdd" else solver_cells()


def load_answers() -> Dict[str, Dict]:
    with open(ANSWERS_PATH) as handle:
        data = json.load(handle)
    if data.get("format") != ANSWERS_FORMAT:
        raise ValueError(f"{ANSWERS_PATH}: unknown format")
    return data["cells"]


def ordered(workload: str, seed: int, answers: Dict[str, Dict]) -> List[Dict]:
    """The workload's cells in run order.

    ``table-bdd`` runs serially in a seeded shuffle.  ``table-solvers``
    runs longest first by the reference time recorded in the answers
    file, whatever the seed: a seeded order would change which cells
    share the two cores, and so the cells' times.
    """
    cells = workload_cells(workload)
    if workload == "table-solvers":
        cells.sort(key=lambda c: (-answers[c["id"]]["ref_ms"], c["id"]))
    else:
        random.Random(seed).shuffle(cells)
    return cells


def describe(result) -> Dict:
    """The answer-relevant fields of a ``SynthesisResult``."""
    answer = {"status": result.status, "depth": result.depth}
    if result.engine == "bdd":
        answer.update(num_solutions=result.num_solutions,
                      qc_min=result.quantum_cost_min,
                      qc_max=result.quantum_cost_max)
    if result.status == "gate_limit":
        answer["bound"] = max((s.depth for s in result.per_depth
                               if s.decision == "unsat"), default=None)
    return answer


def check(entry: Dict, spec, result, answer: Dict) -> List[str]:
    """Everything wrong with ``result`` for the cell; empty when correct."""
    problems = []
    got = describe(result)
    for key, expected in answer.items():
        if key in got and got[key] != expected:
            problems.append(f"{key}: got {got[key]!r}, expected {expected!r}")
    if any(step.timed_out for step in result.per_depth):
        problems.append("a depth timed out")
    if result.status == "gate_limit" and "bound" in answer:
        decisions = [step.decision for step in result.per_depth]
        if decisions != ["unsat"] * (answer["bound"] + 1):
            problems.append(f"UNSAT prefix is {decisions}")
    if result.status != "realized":
        return problems
    if not result.circuits:
        problems.append("no circuit returned")
    costs = []
    for circuit in result.circuits:
        if len(circuit) != result.depth:
            problems.append(f"circuit has {len(circuit)} gates, "
                            f"depth is {result.depth}")
        if not spec.matches_circuit(circuit):
            problems.append("a returned circuit does not realize the spec")
        costs.append(circuit.quantum_cost())
    if entry["engine"] == "bdd" and costs:
        if len(result.circuits) != result.num_solutions:
            problems.append(f"{len(result.circuits)} circuits for "
                            f"{result.num_solutions} solutions")
        if (min(costs), max(costs)) != (answer["qc_min"], answer["qc_max"]):
            problems.append(f"circuit costs span {min(costs)}-{max(costs)}")
    return problems[:5]
