"""The iterative exact-synthesis flow (Figure 1 of the paper).

Starting from depth 0, each iteration asks the selected decision engine
whether a cascade of ``d`` gates realizing the specification exists; the
first satisfiable depth is the minimal gate count.  Engines:

* ``"bdd"``   — quantified synthesis on BDDs (Section 5.2, the paper's
  contribution; returns *all* minimal networks),
* ``"qbf"``   — quantified synthesis via a QBF solver (Section 5.1),
* ``"sat"``   — the per-truth-table-row SAT baseline of [9]/[22],
* ``"sword"`` — a specialized word-level search solver standing in for
  SWORD [21, 22] (problem-specific knowledge, no generic encoding).
"""

from __future__ import annotations

import time
from contextlib import closing, contextmanager
from typing import Dict, Iterator, Optional, Sequence, Tuple, Type, Union

import repro.obs as obs
from repro.core.cancel import CancelledError
from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.synth.bdd_engine import BddSynthesisEngine, DepthOutcome
from repro.synth.qbf_engine import QbfSolverEngine
from repro.synth.result import DepthStat, SynthesisResult
from repro.synth.sat_engine import SatBaselineEngine
from repro.synth.sword_engine import SwordEngine

__all__ = ["ENGINES", "INCREMENTAL_ENGINES", "MIN_DEPTH_BUDGET",
           "PIPELINED_ENGINES", "default_gate_limit", "engine_session",
           "finish_run", "plan_depth_range", "synthesize"]

ENGINES: Dict[str, Type] = {
    "bdd": BddSynthesisEngine,
    "qbf": QbfSolverEngine,
    "sat": SatBaselineEngine,
    "sword": SwordEngine,
}

#: Engines whose depths may be decided out of order on separate depth
#: servers (speculative depth pipelining).  Each server keeps its own
#: warm session across the depths it is sent: the SAT/QBF session
#: encodings tolerate a gapped depth sequence and ``sword`` searches
#: each depth afresh, so any depth can go to any server.  The BDD
#: engine is excluded: its cascade is built incrementally and each
#: depth extends the previous one's BDD state.
PIPELINED_ENGINES = frozenset({"qbf", "sat", "sword"})

#: Engines able to reuse solver/cascade state across the depth loop: the
#: BDD engine's cascade is incremental by construction, and the SAT/QBF
#: engines keep a warm assumption-based CDCL solver inside a driver
#: session.  All accept an ``incremental=False`` engine option (the
#: CLI's ``--no-incremental``) forcing per-depth scratch evaluation.
INCREMENTAL_ENGINES = frozenset({"bdd", "sat", "qbf"})

#: Smallest per-depth time budget worth starting an engine call for: the
#: engines spend more than this constructing their encoding, so a tinier
#: remaining slice is reported as a timeout instead of being burned.
MIN_DEPTH_BUDGET = 1e-3


@contextmanager
def engine_session(instance, keep_open: bool = False):
    """Engine session protocol around one iterative-deepening run.

    Engines that reuse solver state across depths expose
    ``begin_session()`` / ``end_session()``; the driver (and the
    speculative pipeline's depth servers) bracket their depth loops with
    this context manager so a warm solver lives exactly as long as one
    run.  ``begin_session()`` returns whether an incremental session
    actually opened — the yielded value, recorded as
    ``SynthesisResult.incremental``.

    Engines without the protocol get a compatibility shim: nothing is
    called, and the yielded value falls back to the engine's
    ``incremental`` attribute (the BDD engine's cascade is inherently
    incremental; session-less engines like ``sword`` report False).  A
    bare ``engine.decide()`` call outside any session always evaluates
    from scratch, which keeps one-off depth queries side-effect free.

    An engine whose ``session_active`` property reports an already-open
    session is *resumed*, not restarted — ``begin_session()`` would
    discard the warm solver state a pooled engine was kept alive for.
    ``keep_open=True`` additionally skips ``end_session()`` on exit, so
    the caller (the serve daemon's session pool) owns the session's
    remaining lifetime and must eventually call ``end_session()``.
    """
    begin = getattr(instance, "begin_session", None)
    if begin is None:
        yield bool(getattr(instance, "incremental", False))
        return
    if getattr(instance, "session_active", False):
        active = True
    else:
        active = bool(begin())
    try:
        yield active
    finally:
        if not keep_open:
            end = getattr(instance, "end_session", None)
            if end is not None:
                end()


def default_gate_limit(n_lines: int) -> int:
    """A generous upper bound on the minimal gate count.

    Any reversible function over ``n`` lines has an MCT realization with
    at most ``n * 2^n`` gates (one stage per truth-table mismatch in a
    transformation-based sweep); the iterative loop never comes close on
    the paper's benchmarks, so the bound only guards against runaway
    loops on unrealizable incompletely specified inputs.
    """
    return n_lines * (1 << n_lines)


def plan_depth_range(spec: Specification,
                     library: GateLibrary,
                     max_gates: Optional[int] = None,
                     use_bounds: bool = False) -> Tuple[int, int]:
    """The iterative-deepening plan: (start depth, inclusive gate limit).

    Factored out of :func:`synthesize` so the serve daemon's store-first
    probe plans the same range as the run it stands in for.
    """
    limit = (max_gates if max_gates is not None
             else default_gate_limit(spec.n_lines))
    start_depth = 0
    if use_bounds:
        from repro.core.library import mct_gates
        from repro.synth.bounds import lower_bound, upper_bound
        start_depth = lower_bound(spec, library)
        if max_gates is None:
            # The MMD cap is a Toffoli network, so it is only an upper
            # bound for libraries containing every MCT gate.
            if set(mct_gates(spec.n_lines)) <= set(library.gates):
                heuristic_cap = upper_bound(spec)
                if heuristic_cap is not None:
                    limit = min(limit, heuristic_cap)
    return start_depth, limit


def _resolve_library(spec: Specification,
                     library: Optional[GateLibrary],
                     kinds: Optional[Sequence[str]],
                     engine: Union[str, object]) -> GateLibrary:
    """The library the run uses, rejecting silently-ignored arguments.

    When ``engine`` is an instance it was already constructed around a
    library; a *conflicting* explicit ``library``/``kinds`` would be
    dead weight the caller almost certainly meant to take effect, so it
    raises instead of being dropped (matching arguments stay allowed —
    callers legitimately pass the same library to both).
    """
    if isinstance(engine, str):
        if library is not None:
            return library
        return GateLibrary.from_kinds(spec.n_lines, kinds or ("mct",))
    bound = getattr(engine, "library", None)
    if bound is None:
        if library is not None:
            return library
        return GateLibrary.from_kinds(spec.n_lines, kinds or ("mct",))
    for argument, value in (("library", library),
                            ("kinds", GateLibrary.from_kinds(
                                spec.n_lines, kinds) if kinds else None)):
        if value is not None and tuple(value.gates) != tuple(bound.gates):
            raise ValueError(
                f"conflicting {argument}: engine instance was built with "
                f"library {bound.name!r} but {argument}={value.name!r} was "
                f"passed explicitly; construct the engine with the intended "
                f"library or drop the argument")
    return bound


def synthesize(spec: Specification,
               library: Optional[GateLibrary] = None,
               kinds: Optional[Sequence[str]] = None,
               engine: Union[str, object] = "bdd",
               max_gates: Optional[int] = None,
               time_limit: Optional[float] = None,
               use_bounds: bool = False,
               trace: Optional[str] = None,
               workers: int = 1,
               store: Optional[Union[str, object]] = None,
               orbit: bool = True,
               warm_instance: Optional[object] = None,
               keep_session: bool = False,
               **engine_options) -> SynthesisResult:
    """Exact synthesis: minimal number of library gates realizing ``spec``.

    Returns a :class:`SynthesisResult`; with the BDD engine it carries
    every minimal network plus the exact solution count and quantum-cost
    range, with the other engines a single realization.

    ``kinds`` defaults to ``("mct",)`` when neither it nor ``library``
    is given.  Passing a ``library`` or ``kinds`` that conflicts with an
    already-constructed engine instance raises :class:`ValueError`
    instead of being silently ignored.

    The depth loop runs inside an engine session
    (:func:`engine_session`): the SAT and QBF engines keep one warm
    assumption-based CDCL solver across all depths (pass
    ``incremental=False`` as an engine option — the CLI's
    ``--no-incremental`` — to force per-depth scratch solving), the BDD
    engine's cascade is incremental by construction, and ``sword``
    re-searches per depth.  ``result.incremental`` records which mode
    actually ran.

    ``use_bounds=True`` seeds the loop with the admissible lower bound of
    :mod:`repro.synth.bounds` (skipping provably unrealizable shallow
    depths) and, for completely specified functions, caps ``max_gates``
    with the MMD-heuristic upper bound.  Note the BDD engine still builds
    the skipped cascade stages — only their equality checks and
    quantifications are saved.

    ``trace`` names a JSONL file; one schema-valid run record (see
    :mod:`repro.obs.runrecord`) is appended per call.  Per-depth engine
    metrics always land in ``result.per_depth[*].metrics`` and the
    run-level aggregate in ``result.metrics`` — the raw counters are so
    cheap they are never turned off; only span *timing* needs an
    explicit ``obs.set_tracing(True)``.

    ``store`` names a persistent store directory (or passes an opened
    :class:`repro.store.SynthesisStore`).  The run is addressed by a
    content digest of the spec, library, engine and answer-affecting
    options (:func:`repro.store.store_key`): a stored result is
    returned without touching an engine (``result.store_hit``), a
    banked UNSAT bound makes the depth loop resume from ``bound + 1``
    (``result.store_resumed_from``), and on the way out the run's own
    proofs are committed for the next caller — including partial
    deepening from timeouts and cancellations.  Requires ``engine`` to
    be an engine *name*; an instance carries state the digest cannot
    faithfully address, so combining the two raises :class:`ValueError`.

    ``orbit`` (default True) canonicalizes the store address over the
    spec's equivalence orbit (:mod:`repro.store.orbit`): line
    relabelings, negation conjugations and the functional inverse all
    share one cache entry, replayed back into the caller's frame
    through a recorded witness transform and re-verified gate for gate.
    It silently degrades to the literal key for incompletely specified
    functions, libraries not closed under the orbit group and wide
    specs; ``orbit=False`` (the CLI's ``--no-orbit``) forces literal
    addressing.  Cold-run results and records are identical either way
    — only the cache address changes.

    **Warm-session reuse** (the serve daemon's pool): ``warm_instance``
    hands in an engine whose deepening session is still open from an
    earlier interrupted run of the *same configuration* — the depth
    loop resumes from its hot solver state instead of re-encoding.  The
    instance must match ``engine`` (still passed as a name, so store
    addressing keeps working) and ``spec``; the caller guarantees the
    library and engine options match the instance's construction (the
    pool keys on the literal store digest, which covers exactly that).
    When a ``cancel_token`` engine option is supplied it is rebound on
    the instance so a fresh request controls cancellation.
    ``keep_session=True`` leaves the session open on the way out and
    hands the engine back via ``result.engine_instance`` — the caller
    then owns ``end_session()``.  Both knobs require serial execution
    (``workers == 1``, not portfolio).

    **Parallel execution** (:mod:`repro.parallel`):

    * ``engine="portfolio"`` races every registered engine on the spec
      in worker processes and returns the first completed result
      (``workers`` caps the racer count);
    * ``workers > 1`` with a pipelined engine (``sat``, ``qbf``,
      ``sword``) decides depths ``d..d+workers-1`` speculatively on
      depth servers, each keeping its own warm session
      (:class:`repro.parallel.speculative.DepthPipeline`); this loop
      folds their outcomes in depth order and stops at the lowest
      satisfiable depth, so store, events and record are the serial
      run's;
    * ``workers > 1`` with the ``bdd`` engine falls back to the serial
      cascade — its depth queries are incremental (each extends the
      previous depth's BDD state), so there is no depth-level
      parallelism to exploit; the argument is accepted and recorded
      but does not change execution.
    """
    if warm_instance is not None or keep_session:
        if engine == "portfolio" or workers > 1:
            raise ValueError(
                "warm_instance/keep_session require serial execution — "
                "engine sessions live in this process")
    if warm_instance is not None:
        if not isinstance(engine, str):
            raise ValueError(
                "warm_instance needs engine passed as a name; passing the "
                "instance twice is ambiguous")
        if getattr(warm_instance, "name", None) != engine:
            raise ValueError(
                f"warm_instance is a {getattr(warm_instance, 'name', '?')!r} "
                f"engine but engine={engine!r} was requested")
        bound_spec = getattr(warm_instance, "spec", None)
        if bound_spec is not None and bound_spec != spec:
            raise ValueError(
                "warm_instance was built for a different specification; "
                "warm sessions are spec-specific (their encodings bake the "
                "truth-table rows in)")
    if engine == "portfolio":
        from repro.parallel.portfolio import portfolio_synthesize
        resolved = _resolve_library(spec, library, kinds, "bdd")
        # workers=1 is synthesize()'s serial default; for a race it
        # means "no cap" — every engine runs concurrently.
        return portfolio_synthesize(
            spec, resolved, max_gates=max_gates, time_limit=time_limit,
            use_bounds=use_bounds, trace=trace,
            workers=0 if workers <= 1 else workers,
            store=store, orbit=orbit, engine_options=engine_options)

    library = _resolve_library(spec, library, kinds, engine)
    start_depth, limit = plan_depth_range(spec, library, max_gates, use_bounds)

    store_obj = None
    key = None
    store_start_depth = start_depth
    start = time.perf_counter()
    if store is not None:
        from repro.store import open_store
        from repro.store.orbit import derive_store_key
        from repro.store.payload import store_commit, store_lookup
        store_obj = open_store(store)
        key = derive_store_key(spec, library, engine, max_gates=max_gates,
                               use_bounds=use_bounds,
                               engine_options=engine_options, orbit=orbit)
        hit, entry, start_depth = store_lookup(
            store_obj, key, spec, engine, start_depth)
        if hit is not None:
            # Served entirely from the result store: no engine is ever
            # constructed.
            hit.runtime = time.perf_counter() - start
            return finish_run(hit, trace, library, entry=entry)

    # The depth source: this process deciding each depth in turn, or
    # depth servers deciding a window of them speculatively.
    pipeline = instance = None
    if workers > 1 and isinstance(engine, str) and engine in PIPELINED_ENGINES:
        from repro.parallel.speculative import DepthPipeline
        pipeline = DepthPipeline(spec, library, engine, engine_options,
                                 workers)
    elif warm_instance is not None:
        instance = warm_instance
        if "cancel_token" in engine_options:
            from repro.core.cancel import as_token
            instance.cancel_token = as_token(engine_options["cancel_token"])
    elif isinstance(engine, str):
        try:
            engine_cls = ENGINES[engine]
        except KeyError:
            raise ValueError(f"unknown engine {engine!r}; "
                             f"available: {sorted(ENGINES)}") from None
        instance = engine_cls(spec, library, **engine_options)
    else:
        instance = engine
    result = SynthesisResult(
        engine=engine if instance is None else instance.name,
        spec_name=spec.name or "anonymous", status="gate_limit")
    if start_depth > store_start_depth:
        result.store_resumed_from = start_depth - 1
    deadline = None if time_limit is None else start + time_limit
    depths = (pipeline.depths(start_depth, limit, deadline)
              if pipeline is not None else
              _serial_depths(instance, result, start_depth, limit, deadline,
                             keep_session))

    next_depth = start_depth
    with obs.span("synthesize", spec=result.spec_name,
                  engine=result.engine), closing(depths):
        try:
            for depth, outcome, runtime in depths:
                next_depth = depth + 1
                timed_out = outcome.status == "unknown"
                result.per_depth.append(
                    DepthStat(depth=depth, decision=outcome.status,
                              runtime=runtime, detail=dict(outcome.detail),
                              metrics=dict(outcome.metrics),
                              timed_out=timed_out))
                if timed_out:
                    result.status = "timeout"
                    break
                if outcome.status == "sat":
                    result.status = "realized"
                    result.depth = depth
                    result.circuits = outcome.circuits
                    result.num_solutions = outcome.num_solutions
                    result.quantum_cost_min = outcome.quantum_cost_min
                    result.quantum_cost_max = outcome.quantum_cost_max
                    result.solutions_truncated = outcome.solutions_truncated
                    obs.emit("solution_found", spec=result.spec_name,
                             engine=result.engine, depth=depth,
                             num_solutions=outcome.num_solutions)
                    break
                # UNSAT at this depth: a freshly proven lower bound.
                obs.emit("depth_refuted", spec=result.spec_name,
                         engine=result.engine, depth=depth,
                         proven_bound=depth)
        except CancelledError:
            # Cooperative cancellation (portfolio loser / Ctrl-C drain):
            # keep the per-depth trajectory gathered so far so the
            # coordinator can still merge partial metrics.
            result.status = "cancelled"
    if result.status == "gate_limit" and next_depth <= limit:
        # The source stopped short of the limit: the budget ran out.
        result.status = "timeout"

    result.runtime = time.perf_counter() - start
    if keep_session:
        result.engine_instance = instance
    _aggregate_metrics(result)
    if pipeline is not None:
        pipeline.report(result)
    if store_obj is not None:
        # Bank what this run proved — a definitive answer for the result
        # store, and the contiguous UNSAT prefix for the ledger even on
        # timeout/cancellation.
        store_commit(store_obj, key, result, library, start_depth, spec=spec)
    return finish_run(result, trace, library)


def _serial_depths(instance, result: SynthesisResult, start_depth: int,
                   limit: int, deadline: Optional[float],
                   keep_session: bool) -> Iterator[Tuple[int, DepthOutcome,
                                                         float]]:
    """The serial depth source: ``instance`` decides each depth in turn.

    Yields ``(depth, outcome, runtime)`` inside one engine session
    (recorded as ``result.incremental``) and stops early when less than
    :data:`MIN_DEPTH_BUDGET` of the budget is left — the encoding
    construction alone would overrun such a sliver.
    """
    with engine_session(instance, keep_open=keep_session) as warm:
        result.incremental = warm
        for depth in range(start_depth, limit + 1):
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.perf_counter())
                if remaining <= MIN_DEPTH_BUDGET:
                    return
            step_start = time.perf_counter()
            obs.emit("depth_started", spec=result.spec_name,
                     engine=result.engine, depth=depth)
            with obs.span("depth", depth=depth, engine=result.engine):
                outcome = instance.decide(depth, time_limit=remaining)
            yield depth, outcome, time.perf_counter() - step_start


def finish_run(result: SynthesisResult, trace: Optional[str],
               library: GateLibrary, entry: Optional[Dict] = None,
               **event) -> SynthesisResult:
    """The one exit of every run: metrics, trace record, ``run_finished``.

    A computed run publishes its metrics to the process registry and is
    recorded from ``result``, provenance included.  A store hit passes
    its store ``entry`` instead: nothing was computed, so nothing is
    published, and its trace record is the stored canonical record plus
    fresh volatile fields, byte for byte.  ``event`` adds to or
    overrides the ``run_finished`` fields (a portfolio race reports
    itself as the engine).
    """
    if entry is None:
        obs.publish(result.metrics)
    else:
        event.setdefault("store_hit", True)
    if trace is not None:
        if entry is None:
            record = obs.build_run_record(result, library)
        else:
            from repro.store.payload import hit_trace_record
            record = hit_trace_record(entry, result)
        obs.append_record(trace, record)
    obs.emit("run_finished", **{
        "spec": result.spec_name, "engine": result.engine,
        "status": result.status, "depth": result.depth,
        "runtime": result.runtime, **event})
    return result


def _aggregate_metrics(result: SynthesisResult) -> None:
    """Fold per-depth metrics into ``result.metrics`` + driver figures."""
    totals: Dict[str, float] = {}
    for step in result.per_depth:
        obs.merge_metrics(totals, step.metrics)
    totals["driver.depths_tried"] = len(result.per_depth)
    totals["driver.unsat_depths"] = sum(
        1 for s in result.per_depth if s.decision == "unsat")
    totals["driver.timed_out_depths"] = sum(
        1 for s in result.per_depth if s.timed_out)
    result.metrics = totals
