"""Speculative depth pipelining: a parallel depth source for the driver.

The iterative-deepening loop (Figure 1) is inherently serial: depth
``d+1`` is only asked once depth ``d`` answered UNSAT.  For the
pipelined engines (``sat``, ``qbf``, ``sword``) the answer for ``d+1``
can be *speculated* while ``d`` is still being decided: a window of
``workers`` depth queries runs on persistent depth servers, and
:meth:`DepthPipeline.depths` hands the outcomes back in depth order.
:func:`repro.synth.driver.synthesize` consumes them in place of its own
serial ``decide`` calls, so the store, the per-depth fold, the events
and the run record are the serial run's; the first SAT depth ends the
run with exactly the serial result and per-depth decisions.  Every
dispatched depth beyond the final one is wasted speculation, surfaced
as ``driver.speculation_wasted_depths`` in the metrics and the
``speculation_wasted_depths`` run-record field.

The BDD engine is *not* pipelined: its cascade BDDs are built
incrementally, each depth extending the previous state, so independent
depth workers would each rebuild the whole prefix and lose the very
sharing that makes the engine fast.  ``synthesize(engine="bdd",
workers=k)`` therefore documents a serial fallback instead.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from functools import partial
from typing import Dict, Iterator, List, Optional, Tuple

import repro.obs as obs
from repro.core.cancel import CancelledError
from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.parallel.pool import WorkerPool
from repro.synth.bdd_engine import DepthOutcome
from repro.synth.driver import ENGINES, MIN_DEPTH_BUDGET, engine_session
from repro.synth.result import SynthesisResult

__all__ = ["DepthPipeline"]


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


class DepthPipeline:
    """Depths decided on ``workers`` depth servers, yielded in order.

    The window is ``workers`` depths wide: depth ``d`` is dispatched
    only once every depth below ``d - workers + 1`` has been handed
    back.  Only the per-depth search counters (whose warm solver or
    transposition table no longer spans depths decided by different
    workers), runtimes and the ``driver.speculation_*`` metrics differ
    from a serial run.
    """

    def __init__(self, spec: Specification, library: GateLibrary,
                 engine: str, engine_options: Dict, workers: int):
        options = dict(engine_options)
        options.pop("cancel_token", None)  # workers get their own
        self._session = partial(_depth_session, engine, spec, library,
                                options)
        self._label = {"spec": spec.name or "anonymous", "engine": engine}
        self.workers = workers
        self._first = self._next = self._commit = 0

    def depths(self, start_depth: int, limit: int, deadline: Optional[float]
               ) -> Iterator[Tuple[int, DepthOutcome, float]]:
        """Yield ``(depth, outcome, worker runtime)`` from ``start_depth``.

        Stops early when the budget runs out before the next depth is
        answered.  Raises :class:`CancelledError` when a depth server
        was cancelled, :class:`RuntimeError` when one failed or died.
        """
        self._first = self._next = self._commit = start_depth
        idle: List[int] = []
        busy: Dict[int, int] = {}           # worker id -> depth in flight
        outcomes: Dict[int, Tuple[str, object, float]] = {}
        with WorkerPool("speculative", self._session) as pool:
            idle.extend(pool.spawn(engine=self._label["engine"])
                        for _ in range(self.workers))
            with obs.span("speculate", workers=self.workers, **self._label):
                while True:
                    # Fill idle workers with the next depths in the window.
                    while (idle and self._next <= limit
                           and self._next < self._commit + self.workers):
                        budget = (None if deadline is None else
                                  max(0.0, deadline - time.perf_counter()))
                        if budget is not None and budget <= MIN_DEPTH_BUDGET:
                            break
                        worker = idle.pop()
                        pool.send(worker, (self._next, budget))
                        busy[worker] = self._next
                        obs.emit("depth_started", depth=self._next,
                                 worker=worker, speculative=True,
                                 **self._label)
                        self._next += 1
                    if not busy:
                        return  # past the limit, or out of budget

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
                            and self._commit not in outcomes):
                        return

                    while self._commit in outcomes:
                        kind, outcome, runtime = outcomes.pop(self._commit)
                        if kind == "error":
                            raise RuntimeError(f"depth-{self._commit} "
                                               f"worker failed: {outcome}")
                        if kind == "died":
                            raise RuntimeError(
                                f"depth-{self._commit} worker died "
                                f"(exit code {outcome})")
                        if outcome is None:
                            raise CancelledError(
                                f"depth-{self._commit} was cancelled")
                        obs.emit("speculation_committed",
                                 depth=self._commit, decision=outcome.status,
                                 **self._label)
                        yield self._commit, outcome, runtime
                        self._commit += 1  # UNSAT: the pointer moves on

    def report(self, result: SynthesisResult) -> None:
        """Stamp the speculation figures on the finished ``result``.

        The run ended at the commit pointer; every dispatched depth
        beyond it was wasted.
        """
        dispatched = self._next - self._first
        wasted = max(0, self._next - 1 - self._commit)
        # The workers' engines report their solving mode per depth; the
        # committed trajectory is uniform, so any step's flag is the run's.
        result.incremental = any(step.detail.get("incremental", False)
                                 for step in result.per_depth)
        result.metrics["driver.speculation_dispatched"] = dispatched
        result.metrics["driver.speculation_wasted_depths"] = wasted
        result.metrics["driver.workers"] = self.workers
        result.workers = self.workers
        result.speculation_wasted_depths = wasted
        obs.emit("speculation_wasted", wasted=wasted, dispatched=dispatched,
                 **self._label)
