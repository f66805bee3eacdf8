"""Ablation A2 — QBF solving strategy: QDPLL search vs universal expansion.

The paper's QBF engine used skizzo, a solver built on symbolic
skolemization (an expansion-flavoured technique).  This bench compares
two QBF decision procedures on the same synthesis instances: the QBF
engine's universal expansion followed by one CDCL call, against
prefix-order QDPLL search (no learning) — the test-only solver of
``tests/qbf/qdpll.py``, fed the engine's own encoding
(:meth:`QbfSolverEngine.encode`).  Expected shape: expansion wins by
orders of magnitude — search without learning re-explores the select
space per universal branch, while expansion delegates everything to
conflict-driven SAT (this also explains why the paper's QBF engine,
though polynomial to *encode*, cannot keep up with the BDD engine).
Where both decide a case, their verdicts must agree.

Run:  pytest benchmarks/bench_ablation_qbf_solvers.py --benchmark-only -s
"""

import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from _tables import print_table
from repro.core.library import GateLibrary
from repro.functions import get_spec
from repro.synth.qbf_engine import QbfSolverEngine
from tests.qbf.qdpll import solve_qbf

#: (benchmark, depth) — small decisions both solvers can finish
CASES = [("graycode4", 1), ("graycode4", 2), ("3_17", 2), ("3_17", 3)]

#: Per-decision budget, seconds.
TIME_LIMIT = 120

_results = {}


def _run(name, depth, solver):
    spec = get_spec(name)
    engine = QbfSolverEngine(spec, GateLibrary.mct(spec.n_lines))
    start = time.perf_counter()
    if solver == "qdpll":
        formula, _ = engine.encode(depth)
        status = solve_qbf(formula, time_limit=TIME_LIMIT).status
    else:
        status = engine.decide(depth, time_limit=TIME_LIMIT).status
    _results[(name, depth, solver)] = (status, time.perf_counter() - start)
    return status


@pytest.mark.parametrize("solver", ["qdpll", "expansion"])
@pytest.mark.parametrize("name,depth", CASES,
                         ids=[f"{n}-d{d}" for n, d in CASES])
def test_qbf_solver(benchmark, name, depth, solver):
    status = benchmark.pedantic(_run, args=(name, depth, solver),
                                rounds=1, iterations=1)
    assert status in ("sat", "unsat", "unknown")
    verdicts = {_results[key][0] for key in ((name, depth, "qdpll"),
                                             (name, depth, "expansion"))
                if key in _results}
    # Identity: two decision procedures, one truth value.
    assert len(verdicts - {"unknown"}) <= 1, (name, depth, verdicts)


def teardown_module(module):
    header = f"{'BENCH':12s} {'depth':>5s} {'QDPLL':>16s} {'expansion':>16s}"
    rows = []
    for name, depth in CASES:
        cells = []
        for solver in ("qdpll", "expansion"):
            entry = _results.get((name, depth, solver))
            cells.append("(skip)" if entry is None
                         else f"{entry[0]} {entry[1]:7.3f}s")
        rows.append(f"{name:12s} {depth:5d} {cells[0]:>16s} {cells[1]:>16s}")
    print_table("ABLATION A2 — QDPLL search vs universal expansion",
                header, rows,
                "Verdicts must agree; QDPLL is the slower of the two.")
