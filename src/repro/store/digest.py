"""Canonical store keys — content addressing for synthesis runs.

A store key is the SHA-256 digest of a deterministic byte serialization
of everything that determines a synthesis *answer*:

* the specification's truth rows including don't-cares (but **not** its
  ``name`` — two differently-labelled copies of the same function are
  the same cache entry),
* the gate library, serialized gate by gate (not by its display name,
  so custom libraries are addressed by content too),
* the engine name,
* the depth-range arguments (``max_gates``, ``use_bounds``) and every
  engine option that survives :data:`VOLATILE_OPTIONS` filtering.

Everything that merely schedules or observes the run — worker counts,
time limits, cancel tokens, trace paths — is excluded, mirroring
:data:`repro.obs.runrecord.VOLATILE_RECORD_FIELDS`: two runs with equal
keys compute byte-identical canonical run records.

The serialization is explicit bytes hashed with SHA-256, never Python's
builtin ``hash()``: the digest must agree between processes started
with different ``PYTHONHASHSEED`` values and across interpreter
versions, because the store outlives any single process.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Mapping, Optional, Union

from repro.core.library import GateLibrary
from repro.core.spec import Specification

__all__ = ["KEY_FORMAT", "ORBIT_KEY_FORMAT", "VOLATILE_OPTIONS",
           "gate_payload", "library_payload", "key_payload",
           "payload_digest", "store_key"]

KEY_FORMAT = "repro-store-key-v1"

#: Format tag of orbit-canonicalized keys (:mod:`repro.store.orbit`).
#: A distinct tag keeps the two key spaces disjoint: entries committed
#: under literal keys are never misread through an orbit witness and
#: vice versa.
ORBIT_KEY_FORMAT = "repro-store-key-orbit-v1"

#: Engine options that change how a run is *executed or observed* but
#: never which minimal networks it finds; they are excluded from the
#: store key so e.g. a cancelled-then-retried run still hits the entry
#: its first attempt would have written.
VOLATILE_OPTIONS = frozenset({"cancel_token"})


def gate_payload(gate) -> List:
    """JSON-ready canonical description of one gate.

    ``[kind, sorted controls, targets, sorted negative controls]`` —
    the same tuple that drives ``Gate.__eq__``, so two gates serialize
    identically iff they are equal.
    """
    negatives = sorted(getattr(gate, "negative_controls", ()))
    return [gate.kind, sorted(gate.controls), list(gate.targets), negatives]


def library_payload(library: GateLibrary) -> Dict:
    """Canonical description of a gate library (content, not name)."""
    return {
        "n_lines": library.n_lines,
        "gates": [gate_payload(g) for g in library.gates],
    }


def _canonical_options(engine_options: Optional[Mapping]) -> Dict:
    options = {k: v for k, v in dict(engine_options or {}).items()
               if k not in VOLATILE_OPTIONS}
    return options


def key_payload(spec: Specification,
                library: GateLibrary,
                engine: str,
                max_gates: Optional[int] = None,
                use_bounds: bool = False,
                engine_options: Optional[Mapping] = None) -> Dict:
    """The dict whose canonical JSON bytes are hashed into the key.

    Exposed separately from :func:`store_key` so tests (and debugging
    humans) can see exactly what is — and is not — part of the address.
    """
    return {
        "format": KEY_FORMAT,
        # Specification.content_digest() covers n_lines and the rows,
        # don't-cares included, and deliberately not the name; building
        # on it keeps __eq__, content_digest and store keys in lockstep.
        "spec": spec.content_digest(),
        "library": library_payload(library),
        "engine": engine,
        "max_gates": max_gates,
        "use_bounds": bool(use_bounds),
        "options": _canonical_options(engine_options),
    }


def store_key(spec: Specification,
              library: GateLibrary,
              engine: Union[str, object],
              max_gates: Optional[int] = None,
              use_bounds: bool = False,
              engine_options: Optional[Mapping] = None) -> str:
    """SHA-256 hex digest addressing one synthesis configuration."""
    if not isinstance(engine, str):
        raise ValueError(
            "store keys require an engine *name*: an engine instance "
            "carries pre-built state the key cannot faithfully serialize")
    payload = key_payload(spec, library, engine, max_gates=max_gates,
                          use_bounds=use_bounds,
                          engine_options=engine_options)
    return payload_digest(payload)


def payload_digest(payload: Dict) -> str:
    """SHA-256 hex digest of a key payload's canonical JSON bytes.

    sort_keys + tight separators: one canonical byte string per
    payload.  ``default=repr`` keeps exotic option values addressable
    (their repr had better be deterministic; the documented option
    surface is plain scalars).
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
