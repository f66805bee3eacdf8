"""Result types for the synthesis engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.circuit import Circuit

__all__ = ["DepthStat", "SynthesisResult"]


@dataclass
class DepthStat:
    """Statistics of one iteration of the Figure-1 loop.

    ``detail`` is an engine-specific dict (BDD sizes, clause counts,
    search statistics); ``metrics`` carries the depth's figures under
    the stable names of ``docs/observability.md``.  ``timed_out`` marks
    an "unknown" decision caused by the time budget, distinguishing it
    from a genuine UNSAT for downstream tooling.
    """

    depth: int
    decision: str  # "sat", "unsat" or "unknown"
    runtime: float
    detail: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    timed_out: bool = False

    def to_dict(self) -> Dict:
        """JSON-ready representation (run records, ``--json`` output)."""
        return {
            "depth": self.depth,
            "decision": self.decision,
            "runtime": self.runtime,
            "timed_out": self.timed_out,
            "detail": dict(self.detail),
            "metrics": dict(self.metrics),
        }


@dataclass
class SynthesisResult:
    """Outcome of exact synthesis.

    ``status``:

    * ``"realized"`` — minimal circuits found; ``depth`` is minimal.
    * ``"timeout"`` — the time budget ran out before a decision.
    * ``"gate_limit"`` — every depth up to the limit is unrealizable.
    * ``"cancelled"`` — cooperatively cancelled mid-run (a portfolio
      loser or a drained Ctrl-C); the per-depth trajectory holds what
      completed before the cancellation.

    ``circuits`` holds every found realization (all of them for the BDD
    engine, a single one for the SAT/SWORD/QBF engines).  ``num_solutions``
    is the exact count of minimal networks when the engine knows it (BDD
    model counting), else the number of circuits returned.  ``metrics``
    aggregates the per-depth metrics over the whole run (counters are
    summed, gauges take their peak) plus the driver's own figures.

    ``incremental`` records whether the run reused engine state across
    the depth loop (warm-solver SAT/QBF sessions, the BDD engine's
    incremental cascade) as opposed to deciding every depth from
    scratch.  It changes the computation performed — not merely how it
    is scheduled — so it is *canonical*, not a volatile record field:
    serial and parallel runs of the same configuration agree on it.

    The remaining fields are *provenance*: they describe cache luck
    and scheduling, not the computation, so :meth:`to_dict` leaves them
    out and :func:`repro.obs.build_run_record` adds each one that is set
    as a volatile record field.  ``store_hit`` / ``store_resumed_from``
    say whether the result was served from the persistent store
    (:mod:`repro.store`) and the ledger depth the deepening resumed
    after; ``workers`` is the process count of a pipelined, raced or
    pooled run, ``winner_engine`` the engine that won a portfolio race
    and ``speculation_wasted_depths`` the depths a pipelined run decided
    past its answer.

    ``engine_instance`` is populated only for ``keep_session=True``
    runs (the serve daemon's warm session pool): it hands the engine —
    with its deepening session still open — back to the caller for
    reuse.  It never appears in :meth:`to_dict`, records or the store.
    """

    engine: str
    spec_name: str
    status: str
    depth: Optional[int] = None
    circuits: List[Circuit] = field(default_factory=list)
    num_solutions: Optional[int] = None
    quantum_cost_min: Optional[int] = None
    quantum_cost_max: Optional[int] = None
    runtime: float = 0.0
    per_depth: List[DepthStat] = field(default_factory=list)
    solutions_truncated: bool = False
    metrics: Dict[str, float] = field(default_factory=dict)
    incremental: bool = False
    store_hit: bool = False
    store_resumed_from: Optional[int] = None
    workers: Optional[int] = None
    winner_engine: Optional[str] = None
    speculation_wasted_depths: Optional[int] = None
    engine_instance: Optional[object] = field(
        default=None, repr=False, compare=False)

    @property
    def realized(self) -> bool:
        return self.status == "realized"

    @property
    def circuit(self) -> Optional[Circuit]:
        """The cheapest found realization (by quantum cost, then order)."""
        if not self.circuits:
            return None
        return min(self.circuits, key=lambda c: c.quantum_cost())

    def to_dict(self) -> Dict:
        """JSON-ready representation — the body of a run record.

        Circuits themselves are summarized by count (serialize them via
        :func:`repro.core.export.to_json` when the gate lists matter).
        """
        return {
            "engine": self.engine,
            "spec_name": self.spec_name,
            "status": self.status,
            "depth": self.depth,
            "num_solutions": self.num_solutions,
            "num_circuits": len(self.circuits),
            "solutions_truncated": self.solutions_truncated,
            "quantum_cost_min": self.quantum_cost_min,
            "quantum_cost_max": self.quantum_cost_max,
            "runtime": self.runtime,
            "incremental": self.incremental,
            "per_depth": [step.to_dict() for step in self.per_depth],
            "metrics": dict(self.metrics),
        }

    def summary(self) -> str:
        if not self.realized:
            return (f"{self.spec_name} [{self.engine}]: {self.status} "
                    f"after {self.runtime:.2f}s")
        parts = [f"{self.spec_name} [{self.engine}]: D={self.depth}",
                 f"time={self.runtime:.2f}s"]
        if self.num_solutions is not None:
            parts.append(f"#SOL={self.num_solutions}")
        if self.quantum_cost_min is not None:
            if self.quantum_cost_min == self.quantum_cost_max:
                parts.append(f"QC={self.quantum_cost_min}")
            else:
                parts.append(f"QC={self.quantum_cost_min}..{self.quantum_cost_max}")
        return " ".join(parts)
