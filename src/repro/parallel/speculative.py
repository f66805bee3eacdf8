"""Speculative depth pipelining for the stateless engines.

The iterative-deepening loop (Figure 1) is inherently serial: depth
``d+1`` is only asked once depth ``d`` answered UNSAT.  For the
engines whose depth queries are independent (``sat``, ``qbf``,
``sword`` — each builds its encoding or search from scratch per depth)
the answer for ``d+1`` can be *speculated* while ``d`` is still being
decided: a window of depth queries runs on persistent worker processes
and a commit pointer advances over consecutive UNSAT answers.  The
first committed SAT depth is the minimum — exactly the serial result,
with the same per-depth decisions — and every dispatched depth beyond
it is wasted speculation, surfaced honestly as
``driver.speculation_wasted_depths`` in the metrics and the
``speculation_wasted_depths`` run-record field.

The BDD engine is *not* pipelined: its cascade BDDs are built
incrementally, each depth extending the previous state, so independent
depth workers would each rebuild the whole prefix and lose the very
sharing that makes the engine fast.  ``synthesize(engine="bdd",
workers=k)`` therefore documents a serial fallback instead.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from functools import partial
from typing import Dict, List, Optional, Tuple

import repro.obs as obs
from repro.core.cancel import CancelledError
from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.parallel.pool import WorkerPool
from repro.synth.result import DepthStat, SynthesisResult

__all__ = ["speculative_synthesize"]


@contextmanager
def _depth_session(engine_name: str, spec, library, engine_options, token):
    """Depth-server session: construct the engine once, answer depths.

    The server runs inside an engine session
    (:func:`repro.synth.driver.engine_session`), so the SAT/QBF engines
    keep one warm incremental solver per worker amortized across the
    worker's whole depth window.  The monotone session encodings
    tolerate the gapped, strictly-increasing depth sequence each worker
    sees — missing cascade stages are appended on demand and trailing
    stages never constrain earlier depths' answers.  A request is
    ``(depth, budget)``; the reply is the depth's outcome, or ``None``
    when the run was cancelled.
    """
    from repro.synth.driver import ENGINES, engine_session

    engine = ENGINES[engine_name](spec, library, cancel_token=token,
                                  **engine_options)

    def decide(request):
        depth, budget = request
        try:
            return engine.decide(depth, time_limit=budget)
        except CancelledError:
            return None

    with engine_session(engine):
        yield decide


def speculative_synthesize(spec: Specification,
                           library: GateLibrary,
                           engine: str,
                           max_gates: Optional[int] = None,
                           time_limit: Optional[float] = None,
                           use_bounds: bool = False,
                           trace: Optional[str] = None,
                           workers: int = 2,
                           store: Optional[object] = None,
                           orbit: bool = True,
                           engine_options: Optional[Dict] = None,
                           window: Optional[int] = None) -> SynthesisResult:
    """Iterative deepening with depths decided speculatively in parallel.

    Semantics match ``synthesize(spec, engine=engine, ...)``: the same
    depth range is planned (:func:`repro.synth.driver.plan_depth_range`),
    the committed trajectory has the same decisions, and the result
    status/depth/circuit agree with the serial run.  Only runtimes, the
    ``driver.speculation_*`` metrics and (for ``sword``) per-depth
    search counters — whose transposition table no longer spans
    depths decided by different workers — may differ.
    """
    from repro.synth.driver import (MIN_DEPTH_BUDGET, STATELESS_ENGINES,
                                    _aggregate_metrics, plan_depth_range)

    if engine not in STATELESS_ENGINES:
        raise ValueError(f"engine {engine!r} cannot be depth-pipelined; "
                         f"stateless engines: {sorted(STATELESS_ENGINES)}")
    workers = max(1, workers)
    window = workers if window is None else max(1, window)
    engine_options = dict(engine_options or {})
    engine_options.pop("cancel_token", None)  # workers get their own

    start_depth, limit = plan_depth_range(spec, library, max_gates, use_bounds)
    start = time.perf_counter()

    # Same store protocol as the serial driver: a stored result skips
    # the pipeline entirely, a banked bound moves the first dispatched
    # depth, and the committed trajectory's proofs are banked on exit.
    store_obj = None
    key = None
    store_start_depth = start_depth
    if store is not None:
        from repro.store import open_store
        from repro.store.orbit import derive_store_key
        from repro.store.payload import (hit_trace_record, store_commit,
                                         store_lookup)
        store_obj = open_store(store)
        key = derive_store_key(spec, library, engine, max_gates=max_gates,
                               use_bounds=use_bounds,
                               engine_options=engine_options, orbit=orbit)
        hit, entry, start_depth = store_lookup(
            store_obj, key, spec, engine, start_depth)
        if hit is not None:
            hit.runtime = time.perf_counter() - start
            if trace is not None:
                obs.append_record(trace, hit_trace_record(entry, hit))
            obs.emit("run_finished", spec=hit.spec_name, engine=hit.engine,
                     status=hit.status, depth=hit.depth, runtime=hit.runtime,
                     store_hit=True)
            return hit

    result = SynthesisResult(engine=engine, spec_name=spec.name or "anonymous",
                             status="gate_limit")
    if start_depth > store_start_depth:
        result.store_resumed_from = start_depth - 1
    deadline = None if time_limit is None else start + time_limit

    idle: List[int] = []
    busy: Dict[int, int] = {}           # worker id -> depth in flight
    outcomes: Dict[int, Tuple[str, object, float]] = {}
    dispatched = set()
    commit = start_depth
    final_depth: Optional[int] = None   # depth the run settled on

    def remaining_budget() -> Optional[float]:
        if deadline is None:
            return None
        return max(0.0, deadline - time.perf_counter())

    session = partial(_depth_session, engine, spec, library, engine_options)
    with WorkerPool("speculative", session) as pool:
        idle.extend(pool.spawn(engine=engine) for _ in range(workers))
        with obs.span("speculate", spec=result.spec_name, engine=engine,
                      workers=workers):
            while True:
                # Fill idle workers with the next depths in the window.
                next_depth = max(dispatched, default=start_depth - 1) + 1
                while (idle and next_depth <= limit
                       and next_depth < commit + window
                       and result.status == "gate_limit"):
                    budget = remaining_budget()
                    if budget is not None and budget <= MIN_DEPTH_BUDGET:
                        break
                    worker = idle.pop()
                    pool.send(worker, (next_depth, budget))
                    busy[worker] = next_depth
                    dispatched.add(next_depth)
                    obs.emit("depth_started", spec=result.spec_name,
                             engine=engine, depth=next_depth, worker=worker,
                             speculative=True)
                    next_depth += 1

                if not busy:
                    if commit > limit:
                        break  # every depth answered UNSAT: gate_limit
                    # Out of budget before the commit depth could run.
                    result.status = "timeout"
                    break

                for message in pool.wait(0.1):
                    if message.worker not in busy:
                        idle.remove(message.worker)  # died between depths
                        continue
                    if message.kind != "died":
                        idle.append(message.worker)
                    outcomes[busy.pop(message.worker)] = (
                        message.kind, message.value, message.elapsed)

                if (deadline is not None
                        and time.perf_counter() > deadline
                        and commit not in outcomes):
                    result.status = "timeout"
                    break

                # Advance the commit pointer over consecutive answers.
                settled = False
                while commit in outcomes:
                    kind, outcome, runtime = outcomes[commit]
                    if kind == "error":
                        raise RuntimeError(
                            f"depth-{commit} worker failed: {outcome}")
                    if kind == "died":
                        raise RuntimeError(f"depth-{commit} worker died "
                                           f"(exit code {outcome})")
                    if outcome is None:
                        result.status = "cancelled"
                        settled = True
                        break
                    result.per_depth.append(
                        DepthStat(depth=commit, decision=outcome.status,
                                  runtime=runtime,
                                  detail=dict(outcome.detail),
                                  metrics=dict(outcome.metrics),
                                  timed_out=outcome.status == "unknown"))
                    obs.emit("speculation_committed", spec=result.spec_name,
                             engine=engine, depth=commit,
                             decision=outcome.status)
                    if outcome.status == "unknown":
                        result.status = "timeout"
                        settled = True
                        break
                    if outcome.status == "sat":
                        result.status = "realized"
                        result.depth = commit
                        result.circuits = outcome.circuits
                        result.num_solutions = outcome.num_solutions
                        result.quantum_cost_min = outcome.quantum_cost_min
                        result.quantum_cost_max = outcome.quantum_cost_max
                        result.solutions_truncated = outcome.solutions_truncated
                        obs.emit("solution_found", spec=result.spec_name,
                                 engine=engine, depth=commit,
                                 num_solutions=outcome.num_solutions)
                        settled = True
                        break
                    obs.emit("depth_refuted", spec=result.spec_name,
                             engine=engine, depth=commit, proven_bound=commit)
                    commit += 1  # UNSAT: the pointer moves on
                if settled:
                    final_depth = result.depth if result.realized else commit
                    break
                if commit > limit and not busy:
                    break

    if final_depth is None:
        final_depth = commit
    wasted = sum(1 for depth in dispatched if depth > final_depth)
    result.runtime = time.perf_counter() - start
    # The workers' engines report their solving mode per depth; the
    # committed trajectory is uniform, so any step's flag is the run's.
    result.incremental = any(step.detail.get("incremental", False)
                             for step in result.per_depth)
    _aggregate_metrics(result)
    result.metrics["driver.speculation_dispatched"] = len(dispatched)
    result.metrics["driver.speculation_wasted_depths"] = wasted
    result.metrics["driver.workers"] = workers
    result.workers = workers
    result.speculation_wasted_depths = wasted
    obs.emit("speculation_wasted", spec=result.spec_name, engine=engine,
             wasted=wasted, dispatched=len(dispatched))
    obs.publish(result.metrics)
    if store_obj is not None:
        store_commit(store_obj, key, result, library, start_depth, spec=spec)
    if trace is not None:
        extra = {"workers": workers,
                 "cpu_count": os.cpu_count() or 1,
                 "speculation_wasted_depths": wasted}
        if result.store_resumed_from is not None:
            extra["store_resumed_from"] = result.store_resumed_from
        obs.append_record(trace, obs.build_run_record(result, library,
                                                      extra=extra))
    obs.emit("run_finished", spec=result.spec_name, engine=engine,
             status=result.status, depth=result.depth,
             runtime=result.runtime)
    return result
