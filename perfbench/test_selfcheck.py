"""Self-check of the benchmark: exact counts repeat, every metric reports.

Run from the repository root (about three minutes on 2 cores)::

    python3 -m pytest perfbench/test_selfcheck.py -q

Each workload's traced run is made twice with one seed.  The counts the
program makes must repeat exactly and be non-zero on the workload that
exercises them, and the run must report every per-layer metric of
``BENCHMARK.json`` with its declared unit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The counts that must repeat exactly, by the workload that makes them.
EXACT = {
    "table-bdd": ("bdd.ite_calls", "bdd.quant_calls"),
    "table-solvers": ("sat.conflicts", "sword.nodes_visited"),
    "serve-orbit": ("serve.syntheses", "store.orbit_hits"),
}


def traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_exact_counts_repeat(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = {entry["name"]: entry["unit"]
                    for entry in json.load(handle)["per_layer"]}
    first, second = traced_run(workload, 7), traced_run(workload, 7)
    for run in (first, second):
        assert run["correct"] and run["failed"] == 0
        assert {name: metric["unit"]
                for name, metric in run["metrics"].items()} == declared
    for name in EXACT[workload]:
        value = first["metrics"][name]["value"]
        assert value > 0, name
        assert second["metrics"][name]["value"] == value, name
