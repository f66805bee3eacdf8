"""Shared infrastructure for the paper-table benchmark harness.

Environment knobs:

* ``REPRO_FULL=1``      — include the full tier (hwb4, 4_49, graycode6,
  ALU-v*, the 5-line stand-ins); default runs the fast tier only.
* ``REPRO_TIMEOUT=SEC`` — per-engine timeout per benchmark (default 30,
  the paper used 2000 CPU seconds on 2008 hardware; raise it for tighter
  improvement bounds on the cells that time out).
* ``REPRO_TRACE=0``     — disable the JSONL run-record export; by default
  every table cell appends a schema-valid record (see
  ``docs/observability.md``) to ``BENCH_<table>.jsonl`` so the stored
  trajectories are self-describing.
* ``REPRO_TRACE_DIR=D`` — directory for the ``BENCH_*.jsonl`` files
  (default: current directory).
* ``REPRO_WORKERS=N``    — process-pool size for the table sweeps
  (default: min(4, CPUs)); the cells run through
  :func:`repro.parallel.run_suite`, so N > 1 parallelizes them with
  crash isolation while keeping the run records byte-identical to a
  serial sweep (modulo the volatile timing/placement fields).

Paper-reported reference values are stored here so each bench prints a
"paper vs measured" row.  The available copy of the paper has partly
garbled tables; only confidently legible values are recorded, the rest
are None.  Stand-in benchmarks (see DESIGN.md section 3) synthesize a
different concrete function than the RevLib original, so their paper
depths are reported as "paper (original)".
"""

from __future__ import annotations

import os
import subprocess
import time
from typing import Dict, List, Optional, Tuple

__all__ = ["tier", "engine_timeout", "trace_file", "workers",
           "history_file", "append_history", "machine_calibration",
           "record_store_peaks", "PAPER_TABLE1", "PAPER_NOTES",
           "format_time", "print_table"]

#: Schema tag of one benchmarks/history.jsonl line.
HISTORY_FORMAT = "repro-bench-history-v1"


def tier() -> str:
    return "full" if os.environ.get("REPRO_FULL") == "1" else "default"


def workers() -> int:
    """Suite pool size: ``REPRO_WORKERS`` env, else min(4, CPUs)."""
    from repro.parallel import default_workers
    return default_workers()


def engine_timeout() -> float:
    return float(os.environ.get("REPRO_TIMEOUT", "30"))


def trace_file(table: str) -> Optional[str]:
    """JSONL run-record target for a table's cells (None = disabled)."""
    if os.environ.get("REPRO_TRACE") == "0":
        return None
    directory = os.environ.get("REPRO_TRACE_DIR", ".")
    return os.path.join(directory, f"BENCH_{table}.jsonl")


def history_file() -> Optional[str]:
    """The benchmark-history ledger target (None = disabled).

    Defaults to ``benchmarks/history.jsonl`` next to this module, so
    every harness run appends to the same ledger regardless of the
    working directory.  ``REPRO_HISTORY=0`` disables the append,
    ``REPRO_HISTORY_FILE`` redirects it.
    """
    if os.environ.get("REPRO_HISTORY") == "0":
        return None
    explicit = os.environ.get("REPRO_HISTORY_FILE")
    if explicit:
        return explicit
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "history.jsonl")


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def record_store_peaks(manager) -> List[Tuple[int, int]]:
    """Sample ``(node_store_bytes, live nodes)`` before every collection.

    The node columns never shrink and the unique table only shrinks when
    a collection rebuilds it, so the samples taken just before each
    ``gc()`` of ``manager`` — the engine's between-depth reclaim and any
    checkpoint collection — include the store's peak of every depth.
    Returns the (growing) sample list.
    """
    samples: List[Tuple[int, int]] = []
    collect = manager.gc

    def gc(extra_roots=()):
        samples.append((manager.node_store_bytes(), manager.node_count()))
        return collect(extra_roots)

    manager.gc = gc
    return samples


_calibration: Optional[float] = None


def machine_calibration() -> float:
    """Best-of-N machine-speed calibration, measured once per process.

    Exported as the ``calibration_s`` key of every ``BENCH_*.json``
    payload so ``repro bench diff`` can normalize wall-clock keys
    across hosts (see :mod:`repro.obs.benchdiff`).
    """
    global _calibration
    if _calibration is None:
        from repro.obs.benchdiff import calibrate
        _calibration = calibrate()
    return _calibration


def append_history(bench: str, payload: Dict) -> Optional[str]:
    """Append one keyed summary line for a finished bench payload.

    The line carries every numeric leaf of the payload under dotted
    keys (the exact flattening ``repro bench diff`` compares), plus
    provenance: bench name, timestamp and — when available — the git
    commit.  Crash-safe append; returns the path written, or None when
    history is disabled.
    """
    path = history_file()
    if path is None:
        return None
    from repro.obs import append_jsonl_line
    from repro.obs.benchdiff import flatten_numeric
    line = {
        "format": HISTORY_FORMAT,
        "bench": bench,
        "unix_time": time.time(),
        "commit": _git_commit(),
        "keys": flatten_numeric(payload),
    }
    append_jsonl_line(path, line)
    return path


#: Table 1 reference values: name -> (paper D with MCT, paper BDD seconds).
#: None = not legible in the available copy.
PAPER_TABLE1: Dict[str, tuple] = {
    "mod5mils": (5, None),
    "graycode6": (5, None),
    "3_17": (6, None),
    "mod5d1": (7, None),
    "mod5d2": (8, None),
    "hwb4": (11, 20.38),
    "4_49": (12, None),
    "rd32-v0": (4, None),
    "rd32-v1": (5, None),
    "mod5-v0": (None, None),
    "mod5-v1": (None, None),
    "decod24-v0": (None, None),
    "decod24-v1": (None, None),
    "decod24-v2": (None, None),
    "decod24-v3": (None, None),
    "ALU-v0": (6, None),
    "ALU-v1": (7, 30.42),
    "ALU-v2": (7, 34.72),
    "ALU-v3": (7, 45.69),
}

PAPER_NOTES = {
    "table1": ("Paper: SAT/SWORD/QBF time out (>2000s) on hwb4 and 4_49; "
               "the BDD engine solves hwb4 in 20.38s — a >98x improvement. "
               "SWORD beats the QBF-solver engine, loses to BDD on "
               "non-trivial functions."),
    "table2": ("Paper: the BDD engine returns all minimal networks; e.g. "
               "for 4_49 the best realization needs 32 elementary quantum "
               "gates while the worst needs more than 70."),
    "table3": ("Paper: extended libraries shrink realizations — hwb4 drops "
               "from 11 MCT gates to 8 with Peres gates; runtimes grow "
               "with the library, except where a smaller depth saves "
               "iterations."),
}


def format_time(seconds: Optional[float], timed_out: bool = False) -> str:
    if seconds is None or timed_out:
        return f">{engine_timeout():.0f}s"
    return f"{seconds:8.2f}s"


def print_table(title: str, header: str, rows, note: str = "") -> None:
    """Print an assembled paper table and persist it to paper_tables.txt.

    The persistence matters because pytest captures teardown output
    unless run with ``-s``: the side file always carries the tables.
    """
    lines = ["", "=" * max(len(header), len(title)), title,
             "=" * max(len(header), len(title)), header, "-" * len(header)]
    lines.extend(str(row) for row in rows)
    if note:
        lines.append("-" * len(header))
        lines.append(note)
    lines.append("")
    text = "\n".join(lines)
    print(text)
    target = os.environ.get("REPRO_TABLES_FILE", "paper_tables.txt")
    with open(target, "a") as handle:
        handle.write(text + "\n")
