"""Regenerate ``answers.json``, the table workloads' answer gate.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/make_answers.py

Runs every cell of ``table-bdd`` and ``table-solvers`` once, serially,
and refuses to write the file unless the answers cross-check: every
returned circuit realizes its specification, no depth timed out, all
engines agree on status and depth for every row both workloads share,
and the paper's D holds on the rows whose provenance is exact.  Each
cell also records its reference time (``ref_ms``), which only orders
``table-solvers`` longest first.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cells  # noqa: E402


def main() -> int:
    from repro import get_spec, synthesize

    answers, problems = {}, []
    for entry in cells.bdd_cells() + cells.solver_cells():
        spec = get_spec(entry["benchmark"])
        began = time.perf_counter()
        result = synthesize(spec, kinds=entry["kinds"],
                            engine=entry["engine"],
                            max_gates=entry["max_gates"],
                            time_limit=cells.TIME_LIMIT)
        elapsed_ms = (time.perf_counter() - began) * 1000
        answer = cells.describe(result)
        problems += [f"{entry['id']}: {p}"
                     for p in cells.check(entry, spec, result, answer)]
        answer["ref_ms"] = round(elapsed_ms, 1)
        answers[entry["id"]] = answer
        print(f"{entry['id']:28s} {answer}", flush=True)

    shared = {}
    for ident, answer in answers.items():
        benchmark, engine, kinds = ident.split("/")[:3]
        if kinds == "mct" and ident.count("/") == 2:
            shared.setdefault(benchmark, {})[engine] = (answer["status"],
                                                        answer["depth"])
    for benchmark, by_engine in sorted(shared.items()):
        if len(by_engine) > 1 and len(set(by_engine.values())) != 1:
            problems.append(f"{benchmark}: engines disagree {by_engine}")
    for benchmark, depth in cells.PAPER_DEPTH.items():
        got = answers[f"{benchmark}/bdd/mct"]["depth"]
        if got != depth:
            problems.append(f"{benchmark}: D={got}, the paper has {depth}")

    if problems:
        print("answers do not cross-check:", *problems, sep="\n  ")
        return 1
    with open(cells.ANSWERS_PATH, "w") as handle:
        json.dump({"format": cells.ANSWERS_FORMAT, "cells": answers},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(answers)} cells to {cells.ANSWERS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
