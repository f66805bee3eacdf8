"""One pass of a table workload in a fresh process.

Usage (from ``run.py``, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/pass_worker.py <table-bdd|table-solvers> <seed> <mode>

``mode`` is ``setup`` (stop after set-up), ``untraced`` or ``traced``.
Set-up loads the native BDD kernel, builds every cell's specification,
runs one warm-up cell and freezes the heap; the worker then prints
``ready`` so the parent can time set-up from outside.  The pass runs
every cell once (``table-bdd`` serially in this process,
``table-solvers`` through ``repro.parallel.run_suite`` on 2 workers),
checks every answer, and prints one JSON line.  A ``table-bdd`` pass's
wall time is the sum of its cells' ``synthesize()`` times; checking
and collecting between cells are left out.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cells  # noqa: E402  (the benchmark's own module)
import layers  # noqa: E402

POOL_WORKERS = 2

#: Run-level counts folded from ``result.metrics`` with ``max``; every
#: other one is summed over cells.
MAX_COUNTS = ("bdd.peak_nodes", "bdd.bytes")
COUNTS = ("driver.depths_tried", "bdd.ite_calls", "bdd.ite_cache_hits",
          "bdd.quant_calls", "bdd.quant_cache_hits", "bdd.peak_nodes",
          "bdd.bytes", "sat.conflicts", "sat.propagations",
          "sat.incremental.clauses_reused", "sat.incremental.clauses_added",
          "qbf.expanded_clauses", "sword.nodes_visited", "sword.tt_prunes")


def fold_counts(per_cell: List[Dict]) -> Dict[str, float]:
    """Run-level counts from each cell's ``result.metrics``."""
    counts = {name: 0 for name in COUNTS}
    for metrics in per_cell:
        for name in COUNTS:
            value = metrics.get(name, 0)
            if name in MAX_COUNTS:
                counts[name] = max(counts[name], value)
            else:
                counts[name] += value
    return counts


def run_bdd(order: List[Dict], specs, answers) -> tuple:
    """Serially, in this process; each result is checked and dropped
    before the next cell, so the heap a cell starts from does not depend
    on the order."""
    from repro import synthesize

    times, problems, counts = [], [], []
    for entry in order:
        gc.collect()
        began = time.perf_counter()
        result = synthesize(specs[entry["id"]], kinds=entry["kinds"],
                            engine="bdd", max_gates=entry["max_gates"],
                            time_limit=cells.TIME_LIMIT)
        times.append(time.perf_counter() - began)
        problems.append(cells.check(entry, specs[entry["id"]], result,
                                    answers[entry["id"]]))
        counts.append(result.metrics)
        del result
    return sum(times), times, problems, counts, []


def run_solvers(order: List[Dict], specs, answers) -> tuple:
    """Through ``run_suite`` on ``POOL_WORKERS`` forked workers."""
    from repro.parallel import SynthesisTask, run_suite

    tasks = [SynthesisTask(spec=specs[entry["id"]], engine=entry["engine"],
                           kinds=tuple(entry["kinds"]),
                           max_gates=entry["max_gates"],
                           time_limit=cells.TIME_LIMIT, label=entry["id"])
             for entry in order]
    suite = run_suite(tasks, workers=POOL_WORKERS)
    times, problems, counts, shipped = [], [], [], []
    for entry, report in zip(order, suite.reports):
        times.append(report.runtime)
        if report.result is None:
            problems.append([f"no result: {report.error}"])
            continue
        problems.append(cells.check(entry, specs[entry["id"]], report.result,
                                    answers[entry["id"]]))
        counts.append(report.result.metrics)
        shipped.append(getattr(report.result, "perfbench_layers", None))
    return suite.runtime, times, problems, counts, shipped


def main() -> int:
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    from repro import get_spec, synthesize
    from repro.bdd.tables import kernel_available

    kernel = kernel_available()
    answers = cells.load_answers()
    order = cells.ordered(workload, seed, answers)
    specs = {entry["id"]: get_spec(entry["benchmark"]) for entry in order}
    warm_engine = "bdd" if workload == "table-bdd" else "sat"
    synthesize(get_spec("3_17"), engine=warm_engine)
    gc.collect()
    gc.freeze()
    print("ready", flush=True)
    if mode == "setup":
        return 0

    traced = mode == "traced"
    recorder = layers.Recorder()
    if traced:
        layers.install(recorder)
    runner = run_bdd if workload == "table-bdd" else run_solvers
    wall, times, problems, counts, shipped = runner(order, specs, answers)
    report = [{"id": entry["id"], "s": elapsed, "problems": found}
              for entry, elapsed, found in zip(order, times, problems)]
    out = {"wall_s": wall, "kernel": kernel, "cells": report,
           "counts": fold_counts(counts), "workers": POOL_WORKERS}
    if traced:
        layer_times = recorder.snapshot()
        for part in shipped:
            if part is not None:
                layers.merge(layer_times, part)
        out["layers"] = layer_times
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
