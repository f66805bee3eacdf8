"""Bounded 4_49 memory-wall tier: depths reached within a fixed budget.

The full 4_49 deepening run is the instance where the v2 core hit the
paper's memory wall — dict-backed node tables exhaust RAM while the
answer is still depths away.  This bench reproduces the wall at a
deliberately small, CI-safe scale: each contender deepens 4_49 and
stops at the first depth whose *peak* node store exceeds a fixed byte
budget.  The engine reclaims with ``gc()`` after every depth, so the
peak of a depth is the store just before that reclaim (the columns
never shrink, and only a collection shrinks the unique table); it is
sampled there (``_tables.record_store_peaks``).  The depth reached
within the budget is the figure of merit.

One contender, one budget (4 MiB): ``v3``, the packed-table core.

The frozen v2 dict-table core, raced here until it was retired,
reached depth 4 in the same budget, measured on its store after each
depth with no reclaim at all (``FROZEN_V2_DEPTH``; EXPERIMENTS.md).

Hard assertions, not reports: every depth the contender decides must
be UNSAT (4_49 needs more depth than this tier allows — a contender
"winning" by misjudging a depth would be caught), and v3 must reach
*strictly* more depths than the frozen v2 figure.

The whole tier runs in a few seconds; the full instance stays out of
CI by construction.

Run:  cd benchmarks && PYTHONPATH=../src python -m pytest bench_memory_wall.py -q -s
 or:  PYTHONPATH=src python benchmarks/bench_memory_wall.py
"""

import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _tables import (append_history, machine_calibration, print_table,
                     record_store_peaks)
from repro.bdd.tables import kernel_available
from repro.core.library import GateLibrary
from repro.functions import get_spec
from repro.synth.bdd_engine import BddSynthesisEngine

INSTANCE = "4_49"
BUDGET_BYTES = 4 * 1024 * 1024
#: Deepest depth the tier will attempt; every depth up to here is UNSAT
#: for 4_49, and depth 9's peak blows the budget for every contender,
#: so the cap is never the binding constraint — it just bounds runtime.
MAX_DEPTH = 9
PER_DEPTH_TIME_LIMIT = 120.0
#: Deepest depth the frozen v2 core reached within the budget.
FROZEN_V2_DEPTH = 4

CONTENDERS = {
    "v3": {},
}

_results = {}


def _deepen_within_budget(options):
    """Deepen until a depth's peak store exceeds the budget.

    Returns ``(deepest_depth_within_budget, statuses, peak_bytes_per_depth,
    elapsed_s)``.
    """
    spec = get_spec(INSTANCE)
    engine = BddSynthesisEngine(spec, GateLibrary.mct(spec.n_lines),
                                **options)
    samples = record_store_peaks(engine.manager)
    start = time.perf_counter()
    reached = -1
    statuses = []
    peaks = []
    for depth in range(MAX_DEPTH + 1):
        del samples[:]
        outcome = engine.decide(depth, time_limit=PER_DEPTH_TIME_LIMIT)
        statuses.append(outcome.status)
        assert outcome.status == "unsat", (
            f"{options}: 4_49 depth {depth} decided "
            f"{outcome.status}, expected unsat")
        peak = max(store_bytes for store_bytes, _ in samples)
        peaks.append(peak)
        if peak > BUDGET_BYTES:
            break
        reached = depth
    return reached, statuses, peaks, time.perf_counter() - start


def test_memory_wall_tier():
    for name, options in CONTENDERS.items():
        reached, statuses, peaks, elapsed = _deepen_within_budget(options)
        _results[name] = {
            "deepest_within_budget": reached,
            "statuses": statuses,
            "peak_store_bytes_per_depth": peaks,
            "wall_s": elapsed,
        }
    v3 = _results["v3"]["deepest_within_budget"]
    assert v3 > FROZEN_V2_DEPTH, (
        f"packed tables must break the wall: v3 reached {v3}, "
        f"frozen v2 {FROZEN_V2_DEPTH}")


def _export():
    if not _results:
        return
    payload = {
        "bench": "memory_wall",
        "instance": INSTANCE,
        "budget_bytes": BUDGET_BYTES,
        "frozen_v2_depth": FROZEN_V2_DEPTH,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel": kernel_available(),
        "workers": 1,
        "cpu_count": os.cpu_count() or 1,
        "calibration_s": machine_calibration(),
        "contenders": _results,
    }
    if os.environ.get("REPRO_TRACE") != "0":
        directory = os.environ.get("REPRO_TRACE_DIR", ".")
        path = os.path.join(directory, "BENCH_memory_wall.json")
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    append_history("memory_wall", payload)
    header = (f"{'CORE':8s} {'depth':>5s} {'peak @ depth':>13s} "
              f"{'next depth':>11s} {'wall':>8s}")
    rows = [f"{'v2':8s} {FROZEN_V2_DEPTH:5d} {'(frozen)':>13s}"]
    for name, entry in _results.items():
        reached = entry["deepest_within_budget"]
        peaks = entry["peak_store_bytes_per_depth"]
        at = peaks[reached] / 1e6 if reached >= 0 else 0.0
        over = (f"{peaks[reached + 1] / 1e6:9.2f} MB"
                if reached + 1 < len(peaks) else "      (cap)")
        rows.append(f"{name:8s} {reached:5d} {at:10.2f} MB "
                    f"{over:>11s} {entry['wall_s']:7.2f}s")
    print_table(
        f"MEMORY WALL — 4_49 depths reached in a "
        f"{BUDGET_BYTES // (1024 * 1024)} MiB node-store budget",
        header, rows,
        "Per-depth peak store, sampled before each reclaim; "
        "all decided depths UNSAT-verified.")


def teardown_module(module):
    _export()


if __name__ == "__main__":
    test_memory_wall_tier()
    for name, entry in _results.items():
        print(f"{name}: depth {entry['deepest_within_budget']} "
              f"in {entry['wall_s']:.2f}s")
    _export()
