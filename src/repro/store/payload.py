"""Result <-> store-entry serialization, and the driver-facing hooks.

A store entry holds two things:

* the run's **canonical record** — the schema-valid JSONL run record
  with every volatile field stripped
  (:func:`repro.obs.runrecord.canonical_record`), which is exactly what
  a warm run re-emits to its trace file, byte for byte;
* the minimal **circuits**, serialized as RevLib ``.real`` text (the
  round-trip already proven by :mod:`repro.core.realfmt`), so a hit
  reconstructs a full :class:`~repro.synth.result.SynthesisResult`
  without touching an engine.

:func:`store_lookup` / :func:`store_commit` are the two integration
points of :func:`repro.synth.driver.synthesize` (serial and pipelined
runs alike) and the serve daemon's store probes; they also publish the
``store.*`` metrics.  Store metrics go to the
process registry only — never into ``result.metrics`` — so a cold run's
canonical record is identical with and without a store attached.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple, Union

import repro.obs as obs
from repro.core.library import GateLibrary
from repro.core.realfmt import parse_real, write_real
from repro.core.spec import Specification
from repro.core.transform import OrbitTransform, UnsupportedTransform
from repro.store.orbit import (OrbitKey, find_witness, spec_cells,
                               table_from_cells)
from repro.store.store import SynthesisStore
from repro.synth.result import DepthStat, SynthesisResult

__all__ = ["entry_from_result", "result_from_entry",
           "hit_trace_record", "store_lookup", "store_commit"]


def _coerce_key(key: Union[str, OrbitKey]) -> OrbitKey:
    """Accept a plain literal key string anywhere an OrbitKey is used."""
    if isinstance(key, OrbitKey):
        return key
    return OrbitKey(key=key, bounds_key=key, mode="literal")


def entry_from_result(result: SynthesisResult,
                      library: GateLibrary) -> Dict:
    """The committable store entry describing a finished run."""
    record = obs.canonical_record(obs.build_run_record(result, library))
    return {
        "record": record,
        "circuits": [write_real(circuit) for circuit in result.circuits],
    }


def result_from_entry(entry: Dict, spec: Specification) -> SynthesisResult:
    """Rebuild a :class:`SynthesisResult` from a store entry.

    The spec *name* comes from the requesting spec (names are not part
    of the address, so the committing run may have used another label);
    everything else — trajectory, metrics, circuits — is the stored
    computation.
    """
    record = entry["record"]
    result = SynthesisResult(
        engine=record["engine"],
        spec_name=spec.name or "anonymous",
        status=record["status"],
        depth=record.get("depth"),
        circuits=[parse_real(text)[0] for text in entry.get("circuits", ())],
        num_solutions=record.get("num_solutions"),
        quantum_cost_min=record.get("quantum_cost_min"),
        quantum_cost_max=record.get("quantum_cost_max"),
        solutions_truncated=record.get("solutions_truncated", False),
        incremental=record.get("incremental", False),
        metrics=dict(record.get("metrics", {})),
        store_hit=True,
    )
    result.per_depth = [
        DepthStat(depth=step["depth"], decision=step["decision"],
                  runtime=step["runtime"], detail=dict(step["detail"]),
                  metrics=dict(step["metrics"]),
                  timed_out=step["timed_out"])
        for step in record.get("per_depth", ())
    ]
    return result


def hit_trace_record(entry: Dict, result: SynthesisResult) -> Dict:
    """The trace record a cache hit appends: stored canonical + volatile.

    ``canonical_record()`` of this equals the stored record exactly —
    the property the ``store-smoke`` CI job pins.
    """
    record = dict(entry["record"])
    record["spec"] = result.spec_name
    record["runtime"] = result.runtime
    record["unix_time"] = time.time()
    record["store_hit"] = True
    return record


def _replay_transform(key_info: OrbitKey, entry: Dict, spec: Specification
                      ) -> Optional[OrbitTransform]:
    """The frame rotation a hit must apply to the stored circuits.

    Identity for literal keys (and for same-frame orbit hits).  Exact
    mode composes the two precomputed witnesses — the committing run's
    (canonical -> stored frame, kept in the entry) and the caller's
    (canonical -> caller frame): ``W_caller o W_stored^-1`` maps the
    stored frame to the caller's.  Bucket mode searches for a witness
    between the two literal tables at hit time.  ``None`` means the
    entry cannot serve this request (malformed metadata, exhausted
    search budget or a cross-orbit bucket collision) — the caller
    degrades to a miss, which is always sound.
    """
    entry_orbit = entry.get("orbit")
    n = spec.n_lines
    if key_info.mode == "literal":
        # Literal keys address literal entries; orbit metadata never
        # appears under them (the key formats are disjoint).
        return OrbitTransform.identity(n)
    if not isinstance(entry_orbit, dict) \
            or entry_orbit.get("mode") != key_info.mode:
        return None
    if key_info.mode == "exact":
        stored_witness = OrbitTransform.from_payload(
            entry_orbit.get("witness") or {}, n)
        if stored_witness is None or key_info.witness is None:
            return None
        return key_info.witness.compose(stored_witness.inverse())
    stored_table = table_from_cells(entry_orbit.get("spec_cells") or "", n)
    if stored_table is None:
        return None
    return find_witness(stored_table, spec.permutation(), n,
                        "negate" in key_info.subgroup)


def _replayed_result(key_info: OrbitKey, entry: Dict, spec: Specification
                     ) -> Optional[Tuple[SynthesisResult, bool]]:
    """(result in the caller's frame, was-it-an-orbit-replay), or None.

    Same-frame hits reconstruct the stored circuits untouched — the
    byte-identity path the ``store-smoke`` CI job pins.  Cross-frame
    hits conjugate every stored circuit through the replay transform
    and re-verify each against the caller's spec
    (:func:`repro.verify.circuit_realizes`); any failure degrades the
    lookup to a miss rather than ever returning a wrong circuit.
    """
    replay = _replay_transform(key_info, entry, spec)
    if replay is None:
        return None
    result = result_from_entry(entry, spec)
    if replay.is_identity():
        return result, False
    from repro.verify import circuit_realizes
    try:
        circuits = [replay.apply_to_circuit(c) for c in result.circuits]
    except (UnsupportedTransform, ValueError):
        return None
    if any(not circuit_realizes(c, spec) for c in circuits):
        return None
    result.circuits = circuits
    return result, True


def store_lookup(store: SynthesisStore, key: Union[str, OrbitKey],
                 spec: Specification, engine: str, start_depth: int
                 ) -> Tuple[Optional[SynthesisResult], Dict, int]:
    """One cache consultation: (hit result or None, entry, start depth).

    On a result-store hit the reconstructed result is returned and
    synthesis is skipped entirely; orbit-keyed hits from a different
    frame additionally replay the stored circuits through the witness
    transform (verified gate for gate) and are counted as
    ``orbit_hits``.  On a miss the proven-bound ledger may still raise
    the iterative-deepening start depth: the run resumes from
    ``bound + 1`` instead of re-refuting depths a previous (possibly
    timed-out) run already proved UNSAT.
    """
    key_info = _coerce_key(key)
    spec_label = spec.name or "anonymous"
    with obs.span("cache", spec=spec_label, engine=engine):
        if key_info.mode != "literal":
            obs.publish({"store.orbit_canon_time": key_info.canon_time})
        entry = store.get(key_info.key)
        if entry is not None:
            replayed = _replayed_result(key_info, entry, spec)
            if replayed is not None:
                result, via_orbit = replayed
                obs.publish({"store.hits": 1})
                obs.emit("store_hit", spec=spec_label, engine=engine,
                         key=key_info.key)
                if via_orbit:
                    store._bump("orbit_hits")
                    obs.publish({"store.orbit_hits": 1})
                    obs.emit("orbit_hit", spec=spec_label, engine=engine,
                             mode=key_info.mode,
                             circuits=len(result.circuits))
                return result, entry, start_depth
            # The entry exists but cannot serve this frame (bucket
            # collision, exhausted witness budget, failed replay
            # verification): degrade to a miss.  store.get() already
            # counted a hit — rebook it.
            store._bump("hits", -1)
            store._bump("misses")
            store._bump("orbit_mismatches")
            obs.publish({"store.misses": 1, "store.orbit_mismatches": 1})
        else:
            obs.publish({"store.misses": 1})
        bound = store.proven_bound(key_info.bounds_key)
        if bound is not None and bound + 1 > start_depth:
            store._bump("bound_resumes")
            obs.publish({"store.bound_resumes": 1})
            obs.emit("bound_resumed", spec=spec_label,
                     engine=engine, bound=bound, resumed_from=bound + 1)
            return None, {}, bound + 1
    return None, {}, start_depth


#: Per-depth metrics that are 0 when a lexmin descent hit its deadline.
_CANONICAL_COMPLETE = ("sat.canonical_complete", "qbf.canonical_complete")


def _canonical_witness(result: SynthesisResult) -> bool:
    """False when the realizing depth's canonicalization was cut short."""
    for step in result.per_depth:
        if step.decision == "sat":
            return all(step.metrics.get(key, 1)
                       for key in _CANONICAL_COMPLETE)
    return True


def store_commit(store: SynthesisStore, key: Union[str, OrbitKey],
                 result: SynthesisResult, library: GateLibrary,
                 start_depth: int,
                 spec: Optional[Specification] = None) -> None:
    """Bank what a finished (or interrupted) run proved.

    Every run banks its contiguous UNSAT prefix into the ledger —
    including timeouts and cancellations, whose partial deepening is
    the whole point of the ledger.  Depths below ``start_depth`` are
    already proven (the admissible lower bound or a previous ledger
    entry is what moved the start), so the prefix extends from there.
    Definitive runs (``realized`` / ``gate_limit``) additionally commit
    a result entry; the commit is first-writer-wins under concurrency.
    A realizing depth whose witness canonicalization was cut short by
    the deadline (``*.canonical_complete`` 0) commits no entry: its
    circuit is valid but not the canonical one, and every later hit
    would replay it.

    Orbit-keyed commits carry the committing frame in the entry (the
    witness for exact mode, the literal spec cells for bucket mode) so
    later callers from other frames can rotate the circuits back.  The
    cold run itself always synthesized the literal caller spec — only
    the *address* is canonicalized — which keeps cold-run canonical
    records byte-identical with orbit canonicalization on and off.
    """
    key_info = _coerce_key(key)
    unsat_prefix = 0
    for step in result.per_depth:
        if step.decision != "unsat":
            break
        unsat_prefix += 1
    if store.bank_bound(key_info.bounds_key, start_depth + unsat_prefix - 1):
        obs.publish({"store.bounds_banked": 1})
    if (result.status in ("realized", "gate_limit")
            and _canonical_witness(result)):
        entry = entry_from_result(result, library)
        if key_info.mode != "literal" and spec is not None:
            orbit_meta: Dict = {"mode": key_info.mode,
                                "n_lines": spec.n_lines,
                                "spec_cells": spec_cells(spec.permutation(),
                                                         spec.n_lines)}
            if key_info.mode == "exact" and key_info.witness is not None:
                orbit_meta["witness"] = key_info.witness.to_payload()
            entry["orbit"] = orbit_meta
        if store.put(key_info.key, entry):
            obs.publish({"store.commits": 1})
