"""BDD-based quantified synthesis — Section 5.2, the paper's key engine.

Per depth ``d`` the engine holds the outputs of the universal-gate
cascade ``F_d`` as ``n`` BDDs over the input variables ``X`` and the
gate-select variables ``Y_1 .. Y_d``, built incrementally:
``F_d = U_G(F_{d-1}, Y_d)``.  Deciding depth ``d`` means computing

    SOL_d = forall X . AND_l ( f_l^dc OR (F_{d,l} XNOR f_l^on) )

— done as a fold over the input rows (:meth:`BddManager.match_forall`)
that never materializes the intermediate equality BDD over X and Y.  A
non-zero result BDD encodes *every* depth-``d`` realization at once:
each model over the ``Y`` variables decodes to one network, so the
engine reports the exact solution count (``#SOL``) and the full
quantum-cost range (``QC``) of Tables 2 and 3.

The variable order is fixed to "X before Y" by creating the ``x``
variables first and appending select variables per depth; the opposite
order makes ``F_d`` enumerate every function realizable with ``d`` gates
and blows up, which ablation A1 (EXPERIMENTS.md) measures with a Y-first
builder of its own.

Between depths the engine reclaims every node its protected roots (the
cascade frontier and the spec BDDs) no longer reach with
:meth:`BddManager.gc`, which keeps those edges unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.bdd.manager import FALSE, BddManager
from repro.core.cancel import CancelToken, as_token
from repro.core.circuit import Circuit
from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.synth.universal import BddAlgebra, universal_gate_stage

__all__ = ["DepthOutcome", "BddSynthesisEngine"]

#: Cumulative :meth:`BddManager.stats` counters reported per depth as
#: the difference across one :meth:`BddSynthesisEngine.decide`.
_COUNTERS = ("ite_calls", "ite_cache_hits", "quant_calls",
             "quant_cache_hits", "gc_runs", "gc_reclaimed", "table_grows",
             "reorder_runs", "reorder_swaps")


@dataclass
class DepthOutcome:
    """Answer of one depth query (shared by all engines).

    ``detail`` is a small engine-specific dict (human-oriented);
    ``metrics`` uses the stable dot-namespaced names of
    ``docs/observability.md`` and feeds :class:`DepthStat.metrics`.
    """

    status: str  # "sat", "unsat" or "unknown"
    circuits: List[Circuit] = field(default_factory=list)
    num_solutions: Optional[int] = None
    quantum_cost_min: Optional[int] = None
    quantum_cost_max: Optional[int] = None
    detail: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    solutions_truncated: bool = False


class _Deadline:
    """Cooperative deadline, cancellation and memory guard for BDD loops.

    Pure-Python BDD caches can grow into gigabytes on the hardest
    instances (hwb4 at depth 11); dropping the operation caches once they
    pass ``cache_limit`` entries trades some recomputation for bounded
    memory.  The unique table (the nodes themselves) is never dropped, so
    results are unaffected.  ``token`` is polled at the same cadence, so
    a portfolio/suite coordinator can stop the engine mid-apply (raising
    :class:`repro.core.cancel.CancelledError`, which the driver turns
    into a ``"cancelled"`` result rather than a timeout).
    """

    def __init__(self, limit: Optional[float], manager=None,
                 cache_limit: int = 1_500_000,
                 token: Optional[CancelToken] = None):
        self._expiry = None if limit is None else time.perf_counter() + limit
        self._manager = manager
        self._cache_limit = cache_limit
        self._token = as_token(token)

    def check(self) -> None:
        self._token.raise_if_cancelled()
        if self._expiry is not None and time.perf_counter() > self._expiry:
            raise TimeoutError("synthesis deadline exceeded")
        if (self._manager is not None
                and self._manager.cache_size() > self._cache_limit):
            self._manager.clear_caches()


class BddSynthesisEngine:
    """Stateful per-specification engine; query depths in increasing order."""

    name = "bdd"

    def __init__(self, spec: Specification, library: GateLibrary,
                 incremental: bool = True,
                 max_enumerate: int = 200_000,
                 cache_limit: int = 1_500_000,
                 reorder: bool = False,
                 gc_threshold: int = 0,
                 cancel_token: Optional[CancelToken] = None):
        """``cache_limit`` bounds the manager's *operation-cache* entry
        count: once ``ite``/quantification caches together exceed it they
        are dropped (the unique table never is, so answers are
        unaffected).  The default suits a machine running one synthesis;
        memory-bounded parallel workers — several engines racing in a
        portfolio, or a wide :mod:`repro.parallel.scheduler` pool —
        should shrink it via ``engine_options={"cache_limit": ...}`` so
        the per-process peak stays within its share of RAM.

        ``gc_threshold`` > 0 arms mark-and-sweep collection of dead
        depth-frontier nodes at that live-node count, checked between
        cascade stages; ``reorder`` truthy arms sifting-based dynamic
        reordering of the select-variable block at the same checkpoints
        (the input block stays on top — the :meth:`BddManager.match_forall`
        precondition).  Passing an ``int`` sets the live-node count
        that first triggers a sift (``True`` keeps the manager
        default).  Both default off, and both change only
        memory/runtime, never answers — reordering trades sift time
        for node-store headroom, so it pays on memory-bound instances,
        not fast small ones.

        ``cancel_token`` is polled from the deadline/allocation tick; see
        :mod:`repro.core.cancel`.
        """
        if library.n_lines != spec.n_lines:
            raise ValueError("library and specification widths differ")
        if reorder and not incremental:
            raise ValueError("dynamic reordering requires incremental=True "
                             "(the monolithic ablation rebuilds per depth)")
        self.spec = spec
        self.library = library
        self.incremental = incremental
        self.max_enumerate = max_enumerate
        self.cache_limit = cache_limit
        self.reorder = reorder
        self.gc_threshold = gc_threshold
        self.cancel_token = as_token(cancel_token)
        self.n = spec.n_lines
        self.width = library.select_bits()
        if incremental:
            self._init_incremental()

    # -- incremental state ------------------------------------------------------

    def _init_incremental(self) -> None:
        self.manager = BddManager()
        self.x_vars = [self.manager.add_var(f"x{l}") for l in range(self.n)]
        self.y_vars: List[List[int]] = []  # per position
        self.lines: List[int] = [self.manager.var(v) for v in self.x_vars]
        self.built_depth = 0
        self._build_spec_bdds(self.manager, self.x_vars)
        self._protect_roots()
        if self.gc_threshold:
            self.manager.enable_auto_gc(threshold=self.gc_threshold,
                                        enabled=False)
        if self.reorder:
            # Sift only the select block: match_forall requires every
            # input variable above every select variable, so the X block
            # is pinned at the top of the order.
            if self.reorder is True:
                self.manager.enable_auto_reorder(lower=self.n)
            else:
                self.manager.enable_auto_reorder(lower=self.n,
                                                 min_nodes=int(self.reorder))

    def _protect_roots(self) -> None:
        """Register the engine's long-lived edges as external GC roots.

        Protection is what lets :meth:`BddManager.gc` (and the sifting
        session's reference counts) see the cascade frontier and the
        spec BDDs as live; everything else allocated while building a
        stage is reclaimable.
        """
        for edge in (*self.lines, *self.on_bdds, *self.dc_bdds):
            self.manager.protect(edge)

    def _replace_lines(self, new_lines: List[int]) -> None:
        """Swap the protected cascade frontier to a new stage's outputs."""
        for edge in new_lines:
            self.manager.protect(edge)
        for edge in self.lines:
            self.manager.unprotect(edge)
        self.lines = new_lines

    def _checkpoint(self) -> None:
        """Between-stage service point: reclaim and/or reorder.

        Only here — never from inside an apply — because the stage
        builder holds intermediate edges in plain Python frames the
        manager cannot see, and in-flight loops cache level numbers
        that sifting would invalidate.
        """
        if self.gc_threshold:
            self.manager.maybe_gc()
        if self.reorder:
            self.manager.maybe_reorder()

    def _build_spec_bdds(self, manager: BddManager, x_vars: Sequence[int]) -> None:
        """ON-set and don't-care-set BDDs per output line (Definition 4)."""
        self.on_bdds = [manager.from_minterms(x_vars, self.spec.on_set(l))
                        for l in range(self.n)]
        self.dc_bdds = [manager.from_minterms(x_vars, self.spec.dc_set(l))
                        for l in range(self.n)]

    def _select_block(self, manager: BddManager, position: int) -> List[int]:
        """Create one position's select variables; list is LSB-first.

        Creation order within the block is MSB-first, putting the
        target-decode bits *above* the control-subset bits in the BDD
        order.  The decode literal ``[Y_high = l]`` then splits each
        stage's diagrams near the top instead of being re-tested under
        every subset-bit combination — measurably smaller intermediate
        BDDs (~15-20% faster end to end on the benchmark suite) with
        identical solutions.
        """
        block = [manager.add_var(f"y{position}_{j}")
                 for j in reversed(range(self.width))]
        block.reverse()
        return block

    def _advance_to(self, depth: int, deadline: _Deadline) -> None:
        algebra = BddAlgebra(self.manager)
        while self.built_depth < depth:
            position = self.built_depth
            select_vars = self._select_block(self.manager, position)
            self.y_vars.append(select_vars)
            select_nodes = [self.manager.var(v) for v in select_vars]
            self._replace_lines(universal_gate_stage(
                self.lines, select_nodes, self.library, algebra,
                tick=deadline.check,
            ))
            self.built_depth += 1
            self._checkpoint()

    # -- monolithic (per-depth rebuild) state -------------------------------------

    def _build_monolithic(self, depth: int, deadline: _Deadline):
        manager = BddManager()
        deadline._manager = manager
        manager.set_alloc_tick(deadline.check)
        x_vars = [manager.add_var(f"x{l}") for l in range(self.n)]
        y_vars = [self._select_block(manager, p) for p in range(depth)]
        algebra = BddAlgebra(manager)
        lines = [manager.var(v) for v in x_vars]
        for position in range(depth):
            select_nodes = [manager.var(v) for v in y_vars[position]]
            lines = universal_gate_stage(lines, select_nodes, self.library,
                                         algebra, tick=deadline.check)
        self._build_spec_bdds(manager, x_vars)
        return manager, y_vars, lines

    # -- main query ------------------------------------------------------------------

    def decide(self, depth: int,
               time_limit: Optional[float] = None) -> DepthOutcome:
        """Is the specification realizable with ``depth`` cascade slots?

        Following footnote 1 of the paper, identity behaviour exists only
        for the padding codes ``q .. 2^bits - 1``; when ``q`` is an exact
        power of two each slot holds a real gate and the query means
        "exactly ``depth`` gates", otherwise "at most ``depth``".  Either
        way the iterative driver's guarantee holds: the first satisfiable
        depth is the minimal gate count, because a minimal circuit uses
        exactly that many real gates.
        """
        deadline = _Deadline(time_limit,
                             manager=self.manager if self.incremental else None,
                             cache_limit=self.cache_limit,
                             token=self.cancel_token)
        before = (self.manager.stats() if self.incremental
                  else dict.fromkeys(_COUNTERS, 0))
        # The allocation tick fires the deadline check inside long apply
        # runs too (a single ITE can dwarf the per-gate ticks of
        # universal_gate_stage); uninstalled in the finally so a stale
        # deadline never interrupts a later query.
        if self.incremental:
            self.manager.set_alloc_tick(deadline.check)
        try:
            if self.incremental:
                if depth < self.built_depth:
                    raise ValueError("incremental engine: query depths in "
                                     "non-decreasing order")
                with obs.span("bdd.cascade", depth=depth):
                    self._advance_to(depth, deadline)
                manager = self.manager
                y_vars, lines = self.y_vars, self.lines
            else:
                with obs.span("bdd.cascade", depth=depth, monolithic=True):
                    manager, y_vars, lines = self._build_monolithic(
                        depth, deadline)
            with obs.span("bdd.quantify", depth=depth):
                solutions = manager.match_forall(
                    lines, self.on_bdds, self.dc_bdds, self.n)
            deadline.check()
        except TimeoutError:
            return DepthOutcome(status="unknown", detail={"timeout": True},
                                metrics=self._metrics(before))
        finally:
            if self.incremental:
                self.manager.set_alloc_tick(None)

        detail = {"nodes": manager.node_count(),
                  "eq_size": manager.size(solutions)}
        metrics = self._metrics(before, manager)
        metrics["bdd.eq_size"] = detail["eq_size"]
        if solutions == FALSE:
            if self.incremental:
                self.manager.gc()
            return DepthOutcome(status="unsat", detail=detail, metrics=metrics)

        if self.reorder:
            # Model enumeration walks variables in sorted-id order, so
            # sifting's select-block permutation must be undone first;
            # the solutions edge survives the swaps unchanged (edge
            # stability), it just needs to be a root while they run.
            from repro.bdd.reorder import restore_block_order
            with manager.protected(solutions):
                restore_block_order(manager, lower=self.n)
        with obs.span("bdd.extract", depth=depth):
            outcome = self._extract(manager, y_vars, solutions, depth, detail,
                                    metrics)
        if self.incremental:
            self.manager.gc()
        return outcome

    def _metrics(self, before: Dict[str, int],
                 manager: Optional[BddManager] = None) -> Dict[str, float]:
        """Per-depth ``bdd.*`` metrics: counter deltas + state gauges.

        In incremental mode the manager counters span all depths, so the
        query's own work is the difference against the snapshot taken at
        the start of :meth:`decide`; monolithic managers start at zero.
        """
        if manager is None:
            manager = getattr(self, "manager", None)
        if manager is None:  # monolithic build timed out before a manager
            return {}
        now = manager.stats()
        delta = {key: now[key] - before[key] for key in _COUNTERS}
        calls = delta["ite_calls"]
        hits = delta["ite_cache_hits"]
        return {
            "bdd.nodes": now["nodes"],
            "bdd.peak_nodes": now["peak_nodes"],
            "bdd.num_vars": now["num_vars"],
            "bdd.bytes": now["bytes"],
            "bdd.ite_calls": calls,
            "bdd.ite_cache_hits": hits,
            "bdd.ite_cache_misses": calls - hits,
            "bdd.ite_cache_entries": now["ite_cache_entries"],
            "bdd.quant_calls": delta["quant_calls"],
            "bdd.quant_cache_hits": delta["quant_cache_hits"],
            "bdd.quant_cache_entries": now["quant_cache_entries"],
            "bdd.cache_clears": now["cache_clears"],
            "bdd.gc_runs": delta["gc_runs"],
            "bdd.gc_reclaimed": delta["gc_reclaimed"],
            "bdd.table_grows": delta["table_grows"],
            "bdd.reorder_runs": delta["reorder_runs"],
            "bdd.reorder_swaps": delta["reorder_swaps"],
        }

    # -- solution extraction -------------------------------------------------------------

    def _extract(self, manager: BddManager, y_vars: Sequence[Sequence[int]],
                 solutions: int, depth: int, detail: Dict[str, object],
                 metrics: Dict[str, float]) -> DepthOutcome:
        all_select = [v for block in y_vars for v in block]
        count = manager.count_models(solutions, all_select) if all_select else 1
        circuits: List[Circuit] = []
        truncated = False
        if all_select:
            for model in manager.iter_models(solutions, all_select):
                circuits.append(self._decode(model, y_vars))
                if len(circuits) >= self.max_enumerate:
                    truncated = len(circuits) < count
                    break
        else:  # depth 0: the identity circuit
            circuits.append(Circuit(self.n))
        costs = [c.quantum_cost() for c in circuits]
        metrics = dict(metrics)
        metrics["bdd.solutions"] = count
        if truncated:
            # min(costs)/max(costs) cover only the enumerated sample, not
            # all `count` realizations — flag it rather than passing the
            # sample range off as the paper's full QC spread.
            detail = dict(detail)
            detail["qc_range_sample_only"] = True
        return DepthOutcome(
            status="sat",
            circuits=circuits,
            num_solutions=count,
            quantum_cost_min=min(costs),
            quantum_cost_max=max(costs),
            detail=detail,
            metrics=metrics,
            solutions_truncated=truncated,
        )

    def _decode(self, model: Dict[int, bool],
                y_vars: Sequence[Sequence[int]]) -> Circuit:
        """Turn one Y-assignment into a circuit (padding codes = identity).

        At the minimal depth no model contains a padding code (the
        remaining gates would realize the function with fewer gates,
        contradicting unsatisfiability one level down), but queries at
        non-minimal depths legitimately decode shorter circuits.
        """
        gates = []
        for block in y_vars:
            code = sum((1 << j) for j, var in enumerate(block) if model[var])
            if code < self.library.size():
                gates.append(self.library[code])
        return Circuit(self.n, gates)
