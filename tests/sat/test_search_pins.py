"""Pinned CDCL search figures of the SAT and QBF engines.

``search_pins.json`` holds, for the SAT and QBF engines on 3_17,
mod5d1_s and decod24-v3, with and without incremental deepening:

* the counters of every ``CdclSolver.solve`` call of the run, in call
  order (each depth decision, then the lexmin canonicalization probes):
  status, conflicts, decisions, propagations, restarts, learnt clauses
  and the failed-assumption core;
* each depth's decision and the search counters the engine reports for
  it (``*.conflicts``, ``*.decisions``, ``*.propagations``, ...);
* the realized depth and circuits.

The figures were recorded with the solver as it stood before its
internals moved to an indexed decision heap and coded literals.  That
rewrite keeps the search identical decision for decision, and so does
the native search loop (``repro.sat.kernel``), so these counts must not
move: a change to the search shows up here as a failing count, not as a
silent drift.

The pins gate both solvers.  Each case runs once on the native kernel
(the solver the engines use; skipped when the kernel is unavailable)
and once on the pure-Python loops (ids ending in ``/python``).
Regenerate the file only for a deliberate change of the search::

    PYTHONPATH=src python -m tests.sat.test_search_pins \\
        > tests/sat/search_pins.json
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

import pytest

from repro import synthesize
from repro.functions import get_spec
import repro.sat.cdcl as cdcl
from repro.bdd.tables import kernel_available
from repro.sat.cdcl import CdclSolver

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "search_pins.json")
BENCHMARKS = ("3_17", "mod5d1_s", "decod24-v3")
ENGINES = ("sat", "qbf")
COUNTERS = ("conflicts", "decisions", "propagations", "restarts",
            "learnt_clauses")


def case_id(name: str, engine: str, incremental: bool) -> str:
    return f"{name}/{engine}/{'incremental' if incremental else 'scratch'}"


CASES = [(name, engine, incremental) for name in BENCHMARKS
         for engine in ENGINES for incremental in (True, False)]
SOLVER_CASES = [case + (solver,) for case in CASES
                for solver in ("kernel", "python")]


def solver_case_id(name: str, engine: str, incremental: bool,
                   solver: str) -> str:
    suffix = "/python" if solver == "python" else ""
    return case_id(name, engine, incremental) + suffix


def record(name: str, engine: str, incremental: bool) -> Dict:
    """Run one synthesis and collect its search figures."""
    calls: List[list] = []
    original = CdclSolver.solve

    def counted(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        calls.append([result.status, result.conflicts, result.decisions,
                      result.propagations, result.restarts,
                      result.learnt_clauses, result.core])
        return result

    CdclSolver.solve = counted
    try:
        result = synthesize(get_spec(name), engine=engine,
                            incremental=incremental)
    finally:
        CdclSolver.solve = original
    per_depth = [[step.depth, step.decision,
                  {key: value for key, value in sorted(step.metrics.items())
                   if key.rsplit(".", 1)[-1] in COUNTERS}]
                 for step in result.per_depth]
    return {"solves": calls, "per_depth": per_depth, "depth": result.depth,
            "circuits": [repr(circuit) for circuit in result.circuits]}


@pytest.fixture(scope="module")
def pins() -> Dict:
    with open(PINS_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name,engine,incremental,solver", SOLVER_CASES,
                         ids=[solver_case_id(*case) for case in SOLVER_CASES])
def test_search_matches_pins(pins, monkeypatch, name, engine, incremental,
                             solver):
    if solver == "python":
        monkeypatch.setattr(cdcl, "load_cdcl_kernel", lambda: (None, None))
        assert CdclSolver()._native is None
    elif not kernel_available():
        pytest.skip("native kernel unavailable")
    else:
        assert CdclSolver()._native is not None
    # JSON round trip: tuples and lists compare alike.
    got = json.loads(json.dumps(record(name, engine, incremental)))
    want = pins[case_id(name, engine, incremental)]
    assert got["depth"] == want["depth"]
    assert got["circuits"] == want["circuits"]
    assert got["per_depth"] == want["per_depth"]
    assert got["solves"] == want["solves"]


def test_pins_cover_every_case(pins):
    assert sorted(pins) == sorted(case_id(*case) for case in CASES)


if __name__ == "__main__":
    json.dump({case_id(*case): record(*case) for case in CASES}, sys.stdout,
              indent=1, sort_keys=True)
    sys.stdout.write("\n")
