"""JSONL run records — the persistence half of :mod:`repro.obs`.

Every ``synthesize()`` call can append one self-describing JSON object
(a *run record*) to a trace file: the specification and engine, the
gate library, the final status, and the full per-depth trajectory with
each depth's metrics.  Benchmark sweeps write ``BENCH_*.jsonl`` files
through the same path, so a stored trajectory carries everything needed
to re-plot a paper table without re-running it.

The record layout is pinned by :data:`RUN_RECORD_SCHEMA`, a JSON-Schema
subset checked by :func:`validate_run_record` (no third-party validator
is required).  ``python -m repro trace-summary FILE`` renders a file of
records as a table via :func:`summarize_records`.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["RUN_RECORD_FORMAT", "RUN_RECORD_SCHEMA", "VOLATILE_RECORD_FIELDS",
           "VOLATILE_METRIC_KEYS", "RESULT_PROVENANCE_FIELDS",
           "build_run_record", "canonical_record",
           "append_record", "append_jsonl_line", "read_jsonl",
           "iter_records", "read_records", "read_trace",
           "validate_run_record", "summarize_records"]

RUN_RECORD_FORMAT = "repro-run-v1"

_METRICS_SCHEMA = {"type": "object", "additionalProperties": {"type": "number"}}

#: JSON-Schema (draft-subset) description of one run record.  The
#: supported keywords are exactly those :func:`validate_run_record`
#: implements: type, enum, required, properties, additionalProperties,
#: items, minimum.  ``"volatile": True`` marks a top-level field that
#: legitimately differs between two runs of the same task (wall-clock
#: times, placement, cache luck); the validator ignores it, and
#: :data:`VOLATILE_RECORD_FIELDS` is derived from it.
RUN_RECORD_SCHEMA = {
    "type": "object",
    "required": ["format", "spec", "n_lines", "engine", "library", "status",
                 "runtime", "per_depth", "metrics", "versions"],
    "properties": {
        "format": {"enum": [RUN_RECORD_FORMAT]},
        "spec": {"type": "string"},
        "n_lines": {"type": "integer", "minimum": 1},
        "engine": {"type": "string"},
        "library": {
            "type": "object",
            "required": ["name", "size", "select_bits"],
            "properties": {
                "name": {"type": "string"},
                "size": {"type": "integer", "minimum": 0},
                "select_bits": {"type": "integer", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "status": {"enum": ["realized", "timeout", "gate_limit", "cancelled"]},
        "depth": {"type": ["integer", "null"]},
        "num_solutions": {"type": ["integer", "null"]},
        "num_circuits": {"type": "integer", "minimum": 0},
        "solutions_truncated": {"type": "boolean"},
        "quantum_cost_min": {"type": ["integer", "null"]},
        "quantum_cost_max": {"type": ["integer", "null"]},
        "runtime": {"type": "number", "minimum": 0, "volatile": True},
        # Whether engine state was reused across the depth loop (warm
        # SAT/QBF sessions, the BDD incremental cascade).  Optional so
        # pre-existing traces stay valid; canonical, not volatile — it
        # changes the computation, and serial vs parallel runs of the
        # same configuration agree on it.
        "incremental": {"type": "boolean"},
        "unix_time": {"type": "number", "volatile": True},
        "per_depth": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["depth", "decision", "runtime", "timed_out",
                             "metrics", "detail"],
                "properties": {
                    "depth": {"type": "integer", "minimum": 0},
                    "decision": {"enum": ["sat", "unsat", "unknown"]},
                    "runtime": {"type": "number", "minimum": 0},
                    "timed_out": {"type": "boolean"},
                    "metrics": _METRICS_SCHEMA,
                    "detail": {"type": "object"},
                },
                "additionalProperties": False,
            },
        },
        "metrics": _METRICS_SCHEMA,
        # Parallel-execution provenance (repro.parallel), all optional:
        # absent on serial runs so pre-existing traces stay valid.
        "workers": {"type": "integer", "minimum": 1, "volatile": True},
        "cpu_count": {"type": "integer", "minimum": 1, "volatile": True},
        "worker_id": {"type": "integer", "minimum": 0, "volatile": True},
        "retried": {"type": "integer", "minimum": 0, "volatile": True},
        "winner_engine": {"type": "string", "volatile": True},
        "speculation_wasted_depths": {"type": "integer", "minimum": 0,
                                      "volatile": True},
        # Persistent-store provenance (repro.store), optional: whether
        # this record was served from the result store, and the ledger
        # bound (inclusive) the run resumed its iterative deepening
        # from.  Both describe cache luck, not the computation.
        "store_hit": {"type": "boolean", "volatile": True},
        "store_resumed_from": {"type": "integer", "minimum": 0,
                               "volatile": True},
        # Fleet provenance (repro.fleet), optional: which worker host
        # produced the record, and on which claim attempt (> 1 means
        # the task was reclaimed from a dead host).
        "fleet_host": {"type": "string", "volatile": True},
        "fleet_attempt": {"type": "integer", "minimum": 1, "volatile": True},
        "versions": {
            "type": "object",
            "required": ["repro", "python"],
            "properties": {
                "repro": {"type": "string"},
                "python": {"type": "string"},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # bool is an int subclass in Python but not a JSON number.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _validate(value, schema, path: str, errors: List[str]) -> None:
    if "enum" in schema:
        if value not in schema["enum"]:
            errors.append(f"{path}: {value!r} not one of {schema['enum']}")
        return
    declared = schema.get("type")
    if declared is not None:
        types = declared if isinstance(declared, list) else [declared]
        if not any(_TYPE_CHECKS[t](value) for t in types):
            errors.append(f"{path}: expected {'/'.join(types)}, "
                          f"got {type(value).__name__}")
            return
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        minimum = schema.get("minimum")
        if minimum is not None and value < minimum:
            errors.append(f"{path}: {value} below minimum {minimum}")
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for name in schema.get("required", []):
            if name not in value:
                errors.append(f"{path}: missing required key {name!r}")
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in properties:
                _validate(item, properties[key], f"{path}.{key}", errors)
            elif extra is False:
                errors.append(f"{path}: unexpected key {key!r}")
            elif isinstance(extra, dict):
                _validate(item, extra, f"{path}.{key}", errors)
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            _validate(item, schema["items"], f"{path}[{index}]", errors)


def validate_run_record(record) -> List[str]:
    """Check a record against :data:`RUN_RECORD_SCHEMA`.

    Returns a list of human-readable problems; an empty list means the
    record is schema-valid.
    """
    errors: List[str] = []
    _validate(record, RUN_RECORD_SCHEMA, "record", errors)
    return errors


# -- construction -------------------------------------------------------------


#: :class:`~repro.synth.result.SynthesisResult` provenance fields a
#: record takes from its result whenever they are set (not ``None``,
#: not ``False``).  ``cpu_count`` is stamped next to ``workers``.
RESULT_PROVENANCE_FIELDS = ("store_hit", "store_resumed_from", "workers",
                            "winner_engine", "speculation_wasted_depths")


def build_run_record(result, library=None,
                     extra: Optional[Dict] = None) -> Dict:
    """Assemble a run record from a SynthesisResult (+ its gate library).

    ``result`` is duck-typed (anything with ``to_dict()``/``n_lines``-
    compatible fields works) so this module stays import-free of
    :mod:`repro.synth` and usable from any layer.  Its provenance
    (:data:`RESULT_PROVENANCE_FIELDS`) becomes volatile top-level
    fields, so every caller records the same thing about one result.

    ``extra`` merges additional top-level keys into the record — the
    suite scheduler's task-level ``worker_id`` and ``retried``.
    """
    from repro import __version__

    payload = result.to_dict()
    n_lines = (library.n_lines if library is not None
               else max((c.n_lines for c in getattr(result, "circuits", [])),
                        default=0))
    record: Dict = {
        "format": RUN_RECORD_FORMAT,
        "spec": payload.pop("spec_name"),
        "n_lines": n_lines,
        "library": {
            "name": library.name if library is not None else "unknown",
            "size": library.size() if library is not None else 0,
            "select_bits": library.select_bits() if library is not None else 0,
        },
        "unix_time": time.time(),
        "versions": {
            "repro": __version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
    }
    record.update(payload)
    for name in RESULT_PROVENANCE_FIELDS:
        value = getattr(result, name, None)
        if value is not None and value is not False:
            record[name] = value
    if "workers" in record:
        record["cpu_count"] = os.cpu_count() or 1
    if extra:
        record.update(extra)
    return record


#: Fields that legitimately differ between two runs of the same task —
#: those :data:`RUN_RECORD_SCHEMA` flags ``"volatile"``.  Everything
#: else (decisions, depths, solution counts, engine counters) is
#: deterministic, so two records stripped of these fields compare equal
#: iff the runs computed the same thing.
VOLATILE_RECORD_FIELDS = frozenset(
    name for name, schema in RUN_RECORD_SCHEMA["properties"].items()
    if schema.get("volatile"))

#: Metric keys describing how a run was *scheduled* rather than what it
#: computed: how many depths the speculative pipeline dispatched, how
#: many racers a portfolio launched or cancelled.  They vary with
#: worker timing while the answer (and every per-depth decision) stays
#: fixed, so canonical comparison strips them like the volatile
#: top-level fields.
VOLATILE_METRIC_KEYS = frozenset({
    "driver.workers",
    "driver.speculation_dispatched",
    "driver.speculation_wasted_depths",
    "driver.portfolio_racers",
    "driver.portfolio_cancelled",
})

#: Metric prefixes with the same scheduling-volatility: a cancelled
#: portfolio loser's partial counters depend on when the cancel landed.
#: ``bdd.*`` counters and gauges describe *resource* trajectories
#: (node counts, cache traffic, bytes) that legitimately shift with
#: the native kernel's pause cadence and with cache clears while the
#: computed answer stays fixed, so canonical comparison strips them
#: too.
_VOLATILE_METRIC_PREFIXES = ("portfolio.", "bdd.")

#: Exceptions to the prefix rule: metrics that *are* the computed
#: answer (the paper's #SOL column), kept canonical so a run that
#: counts differently still fails the comparison.
_CANONICAL_METRIC_KEYS = frozenset({"bdd.solutions"})

#: Per-depth ``detail`` keys carrying the same resource volatility
#: (live node and solution-BDD sizes).
_VOLATILE_DETAIL_KEYS = frozenset({"nodes", "eq_size"})


def _canonical_metrics(metrics: Dict) -> Dict:
    return {k: v for k, v in metrics.items()
            if k in _CANONICAL_METRIC_KEYS
            or (k not in VOLATILE_METRIC_KEYS
                and not k.startswith(_VOLATILE_METRIC_PREFIXES))}


def canonical_record(record: Dict) -> Dict:
    """A record minus volatile fields, for byte-level run comparison.

    Per-depth runtimes are zeroed (the entries themselves must match)
    and scheduling/resource-volatile metrics are dropped — from the
    run totals and from every per-depth entry; the result serializes
    identically for identical computations — the parallel test-suite
    and the CI ``parallel-smoke`` job rely on this.
    """
    out = {k: v for k, v in record.items() if k not in VOLATILE_RECORD_FIELDS}
    metrics = record.get("metrics")
    if isinstance(metrics, dict):
        out["metrics"] = _canonical_metrics(metrics)
    steps = []
    for step in record.get("per_depth", ()):
        step = dict(step, runtime=0.0)
        if isinstance(step.get("metrics"), dict):
            step["metrics"] = _canonical_metrics(step["metrics"])
        if isinstance(step.get("detail"), dict):
            step["detail"] = {k: v for k, v in step["detail"].items()
                              if k not in _VOLATILE_DETAIL_KEYS}
        steps.append(step)
    out["per_depth"] = steps
    return out


def append_jsonl_line(path: str, payload: Dict) -> None:
    """Crash-safely append one JSON object as one line (creates the file).

    The whole line goes down in a single ``os.write`` on an
    ``O_APPEND`` descriptor and is fsynced before the fd closes: a
    SIGKILLed writer (the suite scheduler's deliberate crash-retry
    path) either lands the complete line or nothing — never the torn
    half-line a buffered ``open(path, "a").write`` can leave behind —
    and concurrent appenders interleave whole lines.
    """
    data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)


def append_record(path: str, record: Dict) -> None:
    """Append one run record as a single atomic JSON line."""
    append_jsonl_line(path, record)


def read_jsonl(path: str, strict: bool = False) -> Tuple[List[Dict], int]:
    """Parse a JSONL file tolerantly: (objects, skipped torn lines).

    A line that fails to decode — in practice the truncated trailing
    line a power loss or a pre-crash-safety writer left behind — is
    skipped and counted instead of poisoning every intact record in
    the file.  ``strict=True`` restores the raise-on-anything
    behaviour for callers that would rather fail loudly.
    """
    records: List[Dict] = []
    torn = 0
    with open(path, "rb") as handle:
        data = handle.read()
    for raw in data.split(b"\n"):
        if not raw.strip():
            continue
        try:
            records.append(json.loads(raw))
        except json.JSONDecodeError:
            if strict:
                raise
            torn += 1
    return records, torn


def read_trace(path: str) -> Tuple[List[Dict], int]:
    """Run records from a trace file plus the count of torn lines."""
    return read_jsonl(path)


def iter_records(path: str, strict: bool = False) -> Iterator[Dict]:
    """Yield records from a JSONL trace file, skipping blank lines.

    Torn (undecodable) lines are skipped unless ``strict`` is set; use
    :func:`read_trace` when the skip count matters.
    """
    records, _torn = read_jsonl(path, strict=strict)
    return iter(records)


def read_records(path: str, strict: bool = False) -> List[Dict]:
    records, _torn = read_jsonl(path, strict=strict)
    return records


# -- aggregation --------------------------------------------------------------

#: (metric, column header) pairs surfaced by the summary table.
_SUMMARY_COLUMNS = (
    ("sat.conflicts", "conflicts"),
    ("sat.decisions", "decisions"),
    ("sat.propagations", "props"),
    ("bdd.peak_nodes", "bddnodes"),
    ("bdd.ite_cache_hits", "ite_hits"),
    ("qbf.expanded_clauses", "expclauses"),
    ("sword.nodes_visited", "swnodes"),
)


def _fmt_count(value: Optional[float]) -> str:
    if value is None:
        return "-"
    value = int(value)
    if value >= 10_000_000:
        return f"{value / 1e6:.0f}M"
    if value >= 100_000:
        return f"{value / 1e3:.0f}k"
    return str(value)


def summarize_records(records: Iterable[Dict]) -> str:
    """Render run records as an aggregate table (CLI ``trace-summary``).

    Invalid records are reported, not silently dropped.
    """
    records = list(records)
    header = (f"{'SPEC':14s} {'ENGINE':7s} {'STATUS':10s} {'D':>3s} "
              f"{'DEPTHS':>6s} {'TIME':>9s} "
              + " ".join(f"{title:>10s}" for _, title in _SUMMARY_COLUMNS))
    lines = [header, "-" * len(header)]
    total_time = 0.0
    invalid = 0
    for record in records:
        problems = validate_run_record(record)
        if problems:
            invalid += 1
            lines.append(f"!! invalid record: {problems[0]}")
            continue
        metrics = record["metrics"]
        depth = record.get("depth")
        total_time += record["runtime"]
        lines.append(
            f"{record['spec']:14s} {record['engine']:7s} "
            f"{record['status']:10s} {depth if depth is not None else '-':>3} "
            f"{len(record['per_depth']):>6d} {record['runtime']:8.2f}s "
            + " ".join(f"{_fmt_count(metrics.get(name)):>10s}"
                       for name, _ in _SUMMARY_COLUMNS))
    lines.append("-" * len(header))
    lines.append(f"{len(records)} records ({invalid} invalid), "
                 f"total runtime {total_time:.2f}s")
    hits = sum(r["metrics"].get("bdd.ite_cache_hits", 0) for r in records
               if not validate_run_record(r))
    calls = sum(r["metrics"].get("bdd.ite_calls", 0) for r in records
                if not validate_run_record(r))
    if calls:
        lines.append(f"aggregate BDD ITE cache hit rate: {hits / calls:.1%} "
                     f"({_fmt_count(hits)}/{_fmt_count(calls)})")
    return "\n".join(lines)
