"""BDD core v3 (packed tables + native kernel) against the frozen v2 core.

Times full ``synthesize()`` runs — cascade construction, the per-depth
decision, and solution enumeration — on the two instances pinned in
EXPERIMENTS.md: 3_17 and the mod5d1_s stand-in.  Correctness is a hard
assertion, not a report: every run must return the exact depth / #SOL
/ quantum-cost range recorded there (the enumerated circuits
themselves are pinned in ``tests/synth/test_bdd_engine.py``).

The v2 dict-table core and the pre-complement-edge seed core were
raced in-process until their figures were recorded; they are now
constants (``FROZEN``, taken from the v2 race's committed baseline on
a host whose calibration constant was ``FROZEN_CALIBRATION_S``).  Two
gates compare v3 against them:

* **memory** — node-store bytes per live node at the end of the
  deepest depth, just before the between-depth ``gc()`` reclaims it
  (``BddManager.node_store_bytes()`` over ``node_count()``), must be
  >= 3x below v2's recorded figure;
* **speed** — when the native kernel compiled, v3's median wall clock,
  scaled to the recording host by the ratio of calibration constants
  (:func:`repro.obs.benchdiff.calibrate`), must beat v2's recorded
  median by >= 1.5x.

Methodology (what the numbers mean):

* Best-of-N wall clock (``REPRO_BENCH_REPS``, default 7).  Best-of is
  the right statistic for a single-threaded CPU-bound run: every
  source of variance (scheduler, frequency scaling, collector) only
  ever adds time.  The median is recorded too and is what the speed
  gate uses.
* ``gc.collect(); gc.freeze()`` before *each* timed rep, so garbage
  left by whatever ran earlier in the process is not billed to it.
* ``peak_rss_bytes`` records ``getrusage`` peak RSS of the whole bench
  process; CI's perf-smoke job asserts a ceiling on it so memory
  regressions gate like wall-clock ones.

Exports ``BENCH_bdd_core.json`` (honoring ``REPRO_TRACE_DIR`` /
``REPRO_TRACE=0`` like the table benches); the committed baseline in
``baselines/`` feeds the ``repro bench diff`` CI gate.

Run:  cd benchmarks && PYTHONPATH=../src python -m pytest bench_bdd_core.py -q -s
 or:  PYTHONPATH=src python benchmarks/bench_bdd_core.py
"""

import gc
import json
import os
import platform
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _tables import (append_history, machine_calibration, print_table,
                     record_store_peaks)
from repro.bdd.tables import kernel_available
from repro.core.library import GateLibrary
from repro.functions import get_spec
from repro.synth import synthesize
from repro.synth.bdd_engine import BddSynthesisEngine

#: name -> pinned (depth, #SOL, qc_min, qc_max); the EXPERIMENTS.md
#: values every run must reproduce exactly.
CASES = {
    "3_17": (6, 7, 14, 14),
    "mod5d1_s": (6, 5, 34, 34),
}

#: The frozen v2 core's figures, recorded from its last in-process race
#: (best of 5, native kernel, CPython 3.11): median ``synthesize()``
#: seconds and node-store bytes per node with the whole run interned.
FROZEN = {
    "3_17": {"v2_median": 0.049024361000192584,
             "v2_bytes_per_node": 161.7505536775848},
    "mod5d1_s": {"v2_median": 0.29473682299976645,
                 "v2_bytes_per_node": 157.32002810293295},
}
#: ``calibrate()`` on the host that recorded ``FROZEN``.
FROZEN_CALIBRATION_S = 0.04833886300002632

#: Gates against the frozen figures (memory always; speed only when the
#: native kernel compiled — the pure-Python fallback keeps answers, not
#: the speedup).
MIN_MEM_RATIO = 3.0
MIN_SPEEDUP_MEDIAN = 1.5

_results = {}


def _reps():
    return max(1, int(os.environ.get("REPRO_BENCH_REPS", "7")))


def _json_path():
    if os.environ.get("REPRO_TRACE") == "0":
        return None
    directory = os.environ.get("REPRO_TRACE_DIR", ".")
    return os.path.join(directory, "BENCH_bdd_core.json")


def _race(fn):
    """Best-of-N wall clock with a frozen heap per rep."""
    times = []
    result = None
    for _ in range(_reps()):
        gc.collect()
        gc.freeze()
        try:
            start = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - start)
        finally:
            gc.unfreeze()
    times.sort()
    return result, times[0], times[len(times) // 2]


def _bytes_per_node(name, depth):
    """Node-store bytes per live node at the deepest depth's peak.

    Sampled just before the between-depth ``gc()`` that ends the final
    depth, when the store holds the cascade, the spec BDDs and every
    node that depth interned.
    """
    spec = get_spec(name)
    engine = BddSynthesisEngine(spec, GateLibrary.mct(spec.n_lines))
    samples = record_store_peaks(engine.manager)
    outcome = None
    for d in range(depth + 1):
        outcome = engine.decide(d)
    assert outcome is not None and outcome.status == "sat", name
    store_bytes, nodes = samples[-1]
    return store_bytes / nodes, nodes


def _run_case(name):
    expected = CASES[name]
    spec = get_spec(name)
    v3, v3_best, v3_median = _race(
        lambda: synthesize(spec, kinds=("mct",), engine="bdd"))
    answer = (v3.depth, v3.num_solutions,
              v3.quantum_cost_min, v3.quantum_cost_max)
    assert answer == expected, f"v3 {name}: {answer} != {expected}"

    frozen = FROZEN[name]
    # v3's median as it would read on the host that recorded FROZEN.
    scaled_median = v3_median * FROZEN_CALIBRATION_S / machine_calibration()
    bytes_per_node, nodes = _bytes_per_node(name, expected[0])
    entry = {
        "depth": expected[0],
        "num_solutions": expected[1],
        "quantum_cost_min": expected[2],
        "quantum_cost_max": expected[3],
        "v3_best_s": v3_best,
        "v3_median_s": v3_median,
        "speedup_median": frozen["v2_median"] / scaled_median,
        "kernel": kernel_available(),
        "v2_bytes_per_node": frozen["v2_bytes_per_node"],
        "v3_bytes_per_node": bytes_per_node,
        "v3_store_nodes": nodes,
        "mem_ratio": frozen["v2_bytes_per_node"] / bytes_per_node,
    }
    _results[name] = entry
    assert entry["mem_ratio"] >= MIN_MEM_RATIO, entry
    if kernel_available():
        assert entry["speedup_median"] >= MIN_SPEEDUP_MEDIAN, entry
    else:
        print(f"note: native kernel unavailable — {name} speedup "
              f"{entry['speedup_median']:.2f}x reported, not gated")
    return entry


def test_bdd_core_3_17():
    _run_case("3_17")


def test_bdd_core_mod5d1_s():
    _run_case("mod5d1_s")


def _export():
    if not _results:
        return
    payload = {
        "bench": "bdd_core",
        "reps": _reps(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel": kernel_available(),
        # A single-process run by design; recorded so the perf
        # trajectory stays comparable with the parallel benches.
        "workers": 1,
        "cpu_count": os.cpu_count() or 1,
        "calibration_s": machine_calibration(),
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024,
        "cases": _results,
    }
    path = _json_path()
    if path:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    append_history("bdd_core", payload)
    header = (f"{'BENCH':10s} {'D':>2s} {'#SOL':>4s} {'QC':>7s} "
              f"{'v3 best':>9s} {'vs v2':>7s} "
              f"{'v2 B/n':>7s} {'v3 B/n':>7s} {'mem':>6s}")
    rows = []
    for name, e in _results.items():
        qc = f"{e['quantum_cost_min']}-{e['quantum_cost_max']}"
        rows.append(f"{name:10s} {e['depth']:2d} {e['num_solutions']:4d} "
                    f"{qc:>7s} {e['v3_best_s']:8.4f}s "
                    f"{e['speedup_median']:6.2f}x "
                    f"{e['v2_bytes_per_node']:7.1f} "
                    f"{e['v3_bytes_per_node']:7.1f} "
                    f"{e['mem_ratio']:5.1f}x")
    kernel = "native kernel" if kernel_available() else "pure Python (no cc)"
    print_table("BDD CORE — packed-table v3 vs the frozen v2 core's "
                f"recorded figures (best of {_reps()}, {kernel})",
                header, rows,
                "vs v2 = recorded v2 median over calibration-scaled v3 "
                "median; see module docstring.")


def teardown_module(module):
    _export()


if __name__ == "__main__":
    for case in CASES:
        entry = _run_case(case)
        print(f"{case}: v3 {entry['v3_best_s']:.4f}s "
              f"({entry['speedup_median']:.2f}x the recorded v2 median), "
              f"{entry['v3_bytes_per_node']:.1f} vs "
              f"{entry['v2_bytes_per_node']:.1f} B/node "
              f"({entry['mem_ratio']:.1f}x)")
    _export()
