"""Engine-portfolio racing — first complete result wins.

The four engines have wildly different runtime profiles per benchmark
(Table 1: the best engine per spec varies and the spread is orders of
magnitude), so racing them and taking the first finisher beats any
fixed engine choice without having to predict the winner.  Each racer
runs the full iterative-deepening loop in its own forked process; the
first *definitive* result (``realized`` or ``gate_limit``) wins and the
losers are cancelled cooperatively through their
:class:`~repro.core.cancel.CancelToken`, giving them a grace window to
report the partial trajectory they computed — the loser metrics are
merged into the winner's record under ``portfolio.<engine>.*``.

Surfaced as ``synthesize(spec, engine="portfolio")`` and
``python -m repro synth --portfolio``.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Optional, Sequence, Tuple

import repro.obs as obs
from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.parallel.pool import Message, WorkerPool
from repro.parallel.tasks import SynthesisTask

__all__ = ["PORTFOLIO_ENGINES", "portfolio_synthesize"]

#: Engines raced by default, in tie-break priority order.
PORTFOLIO_ENGINES: Tuple[str, ...] = ("bdd", "sword", "sat", "qbf")

#: A result with one of these statuses settles the race.
_DEFINITIVE = frozenset({"realized", "gate_limit"})

#: Preference order when no racer was definitive.
_STATUS_RANK = {"realized": 0, "gate_limit": 1, "timeout": 2,
                "cancelled": 3, "error": 4}


@contextmanager
def _race_session(token):
    yield lambda task: task.run(cancel_token=token)


def portfolio_synthesize(spec: Specification,
                         library: GateLibrary,
                         engines: Sequence[str] = PORTFOLIO_ENGINES,
                         max_gates: Optional[int] = None,
                         time_limit: Optional[float] = None,
                         use_bounds: bool = False,
                         trace: Optional[str] = None,
                         workers: int = 0,
                         store: Optional[object] = None,
                         orbit: bool = True,
                         engine_options: Optional[Dict] = None,
                         grace: float = 5.0):
    """Race ``engines`` on ``spec``; return the first complete result.

    ``workers`` bounds how many racers run concurrently (0 or anything
    larger than the portfolio means "all at once"); every engine is
    raced eventually — a bounded pool launches the next engine when a
    slot frees without a winner.  ``engine_options`` keys naming an
    engine hold per-engine option dicts; remaining keys apply to every
    racer.

    The returned :class:`~repro.synth.result.SynthesisResult` is the
    winner's, with ``runtime`` rebased to the race's wall-clock time
    and extra attributes ``winner_engine``, ``workers`` and
    ``loser_results`` (engine → result for every racer that reported
    back, including cancelled partials).

    ``store`` (a path or open :class:`repro.store.SynthesisStore`)
    attaches one shared persistent store to every racer: each does its
    own content-addressed lookup and commit in-process — engines are
    distinct keys, so racers never collide — and *cancelled losers
    still bank their partial UNSAT bounds*, turning lost races into a
    head start for the next run of those engines.
    """
    engines = list(engines)
    if not engines:
        raise ValueError("portfolio needs at least one engine")
    unknown = [e for e in engines if e == "portfolio"]
    if unknown:
        raise ValueError("portfolio cannot race itself")
    engine_options = dict(engine_options or {})
    per_engine = {name: engine_options.pop(name) for name in list(engine_options)
                  if name in engines and isinstance(engine_options[name], dict)}
    concurrency = len(engines) if workers < 1 else min(workers, len(engines))
    store_path = None
    if store is not None:
        store_path = getattr(store, "root", None) or str(store)

    start = time.perf_counter()
    racer_of: Dict[int, int] = {}  # worker id -> index into engines
    reported: Dict[int, Tuple[str, object]] = {}
    winner_id: Optional[int] = None

    def launch(pool: WorkerPool, racer_id: int) -> None:
        name = engines[racer_id]
        options = dict(engine_options)
        options.update(per_engine.get(name, {}))
        task = SynthesisTask(spec=spec, engine=name, library=library,
                             engine_options=options, max_gates=max_gates,
                             time_limit=time_limit, use_bounds=use_bounds,
                             store_path=store_path, orbit=orbit)
        worker = pool.spawn(engine=name)
        racer_of[worker] = racer_id
        pool.send(worker, task)

    def record(pool: WorkerPool, message: Message) -> None:
        nonlocal winner_id
        racer_id = racer_of[message.worker]
        if message.kind == "died":
            # A racer that died without reporting (OOM-kill, hard
            # crash) must not hang the race: score it as an error.
            reported.setdefault(racer_id, (
                "error",
                f"racer {engines[racer_id]} died (exit {message.value})"))
            return
        reported[racer_id] = (message.kind, message.value)
        pool.terminate(message.worker)  # a racer serves one request
        if (winner_id is None and message.kind == "ok"
                and message.value.status in _DEFINITIVE):
            winner_id = racer_id

    with obs.span("portfolio", spec=spec.name or "anonymous",
                  engines=",".join(engines)), \
            WorkerPool("portfolio", _race_session) as pool:
        for racer_id in range(concurrency):
            launch(pool, racer_id)
        while winner_id is None and len(reported) < len(engines):
            for message in pool.wait(0.05):
                record(pool, message)
            while (winner_id is None and len(racer_of) < len(engines)
                   and len(racer_of) - len(reported) < concurrency):
                launch(pool, len(racer_of))
        if winner_id is not None:
            pool.cancel()
            # Grace window for the cancelled losers to report their
            # partial trajectories; stragglers are terminated.
            deadline = time.perf_counter() + grace
            while (len(reported) < len(racer_of)
                   and time.perf_counter() < deadline):
                for message in pool.wait(0.05):
                    record(pool, message)
            for worker, racer_id in racer_of.items():
                if racer_id not in reported:
                    pool.terminate(worker)
                    reported[racer_id] = ("cancelled", None)
            # Engines never launched lost by walkover.
            for racer_id in range(len(racer_of), len(engines)):
                reported[racer_id] = ("cancelled", None)

    if winner_id is None:
        # Nobody was definitive (all timed out / errored): pick the
        # least-bad reporter in portfolio priority order.
        def rank(racer_id: int) -> Tuple[int, int]:
            kind, payload = reported[racer_id]
            status = payload.status if kind == "ok" else "error"
            return (_STATUS_RANK.get(status, 5), racer_id)

        candidates = [rid for rid, (kind, _) in reported.items()
                      if kind == "ok"]
        if not candidates:
            failures = "; ".join(
                f"{engines[rid]}: {payload}"
                for rid, (kind, payload) in sorted(reported.items()))
            raise RuntimeError(f"every portfolio racer failed — {failures}")
        winner_id = min(candidates, key=rank)

    final = reported[winner_id][1]
    losers = {engines[rid]: payload
              for rid, (kind, payload) in reported.items()
              if rid != winner_id and kind == "ok"}
    cancelled = sum(1 for rid, (kind, payload) in reported.items()
                    if kind == "cancelled"
                    or (kind == "ok" and payload.status == "cancelled"))
    for name, loser in losers.items():
        for metric, value in loser.metrics.items():
            final.metrics[f"portfolio.{name}.{metric}"] = value
    final.metrics["driver.portfolio_racers"] = len(engines)
    final.metrics["driver.portfolio_cancelled"] = cancelled
    final.runtime = time.perf_counter() - start
    final.winner_engine = engines[winner_id]
    final.workers = concurrency
    final.loser_results = losers
    obs.publish(final.metrics)
    if trace is not None:
        extra = {"workers": concurrency,
                 "cpu_count": os.cpu_count() or 1,
                 "winner_engine": engines[winner_id]}
        if final.store_hit:
            extra["store_hit"] = True
        if final.store_resumed_from is not None:
            extra["store_resumed_from"] = final.store_resumed_from
        obs.append_record(trace, obs.build_run_record(final, library,
                                                      extra=extra))
    obs.emit("run_finished", spec=final.spec_name, engine="portfolio",
             status=final.status, depth=final.depth, runtime=final.runtime,
             winner_engine=engines[winner_id])
    return final
