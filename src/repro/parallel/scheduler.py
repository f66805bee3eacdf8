"""Batched suite scheduling over a bounded, crash-isolated process pool.

``run_suite`` fans a list of :class:`~repro.parallel.tasks.SynthesisTask`
over ``workers`` processes of a :class:`~repro.parallel.pool.WorkerPool`.
The parent assigns one task at a time to idle workers, so it always
knows which task a dead worker was holding: that task is retried
exactly once on a freshly spawned worker (``retried=1`` in its report
and run record) and the rest of the batch is unaffected.  Per-task
deadlines flow through the engines' cooperative time budgets, with a
hard wall (``hard_deadline_grace`` beyond the budget) as a backstop for
a stuck worker.  Ctrl-C drains gracefully: the shared cancel token
stops every engine within milliseconds, partial results are collected,
and the pool shuts down without orphan processes.

Completed tasks merge into the parent's :mod:`repro.obs` state: run
records (with ``worker_id``/``retried``/``workers``/``cpu_count``
provenance) are appended to the trace file in task order, not
completion order, so parallel and serial traces compare line by line,
and each task's metrics are published into the parent registry.
"""

from __future__ import annotations

import os
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.parallel.pool import Message, WorkerPool
from repro.parallel.tasks import SynthesisTask, default_workers

__all__ = ["SuiteRun", "TaskReport", "run_suite"]


@contextmanager
def _suite_session(token):
    def run(task):
        # ``task.run`` is looked up per call, so a wrapper installed on
        # the class before the fork is honoured in the worker.
        with obs.span("suite.task", label=task.resolved_label()):
            result = task.run(cancel_token=token)
        span_tree = (obs.get_tracer().format_tree()
                     if obs.tracing_enabled() else None)
        return result, span_tree

    yield run


@dataclass
class TaskReport:
    """Outcome of one suite task, with execution provenance."""

    label: str
    status: str                      # result status, or "error"/"cancelled"
    result: Optional[object] = None  # SynthesisResult when the task ran
    record: Optional[Dict] = None    # schema-valid run record
    error: Optional[str] = None
    worker_id: int = -1
    retried: int = 0
    runtime: float = 0.0
    span_tree: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.result is not None and self.status != "cancelled"


@dataclass
class SuiteRun:
    """Everything ``run_suite`` learned about a batch."""

    reports: List[TaskReport]
    workers: int
    runtime: float = 0.0
    interrupted: bool = False
    metrics: Dict[str, float] = field(default_factory=dict)

    def report(self, label: str) -> TaskReport:
        for item in self.reports:
            if item.label == label:
                return item
        raise KeyError(label)

    def summary(self) -> str:
        done = sum(1 for r in self.reports if r.ok)
        retried = sum(1 for r in self.reports if r.retried)
        tail = " (interrupted)" if self.interrupted else ""
        return (f"suite: {done}/{len(self.reports)} tasks ok, "
                f"{retried} retried, {self.workers} workers, "
                f"{self.runtime:.2f}s{tail}")


def run_suite(tasks: Sequence[SynthesisTask],
              workers: Optional[int] = None,
              trace: Optional[str] = None,
              store: Optional[object] = None,
              on_report: Optional[Callable[[TaskReport], None]] = None,
              hard_deadline_grace: float = 10.0,
              drain_grace: float = 5.0) -> SuiteRun:
    """Run ``tasks`` over a pool of ``workers`` processes.

    Returns a :class:`SuiteRun` whose ``reports`` align with ``tasks``
    by position.  ``on_report`` fires in completion order (progress
    printing).  A task whose worker dies is retried exactly once on a
    fresh worker; a second death reports ``status="error"``.  A task
    with a ``time_limit`` that overruns it by ``hard_deadline_grace``
    seconds (stuck worker) is terminated and reported as an error —
    retrying a deterministic overrun would just overrun again.

    ``store`` (a path or open :class:`repro.store.SynthesisStore`)
    attaches one shared persistent store to every task that does not
    already carry its own ``store_path``: workers look repeat
    configurations up before synthesizing and commit what they prove —
    the second run of an unchanged suite is pure cache hits, and a
    crash-retried task reuses whatever its first attempt banked.
    """
    tasks = list(tasks)
    if store is not None:
        from dataclasses import replace as dc_replace
        store_path = getattr(store, "root", None) or str(store)
        tasks = [task if task.store_path is not None
                 else dc_replace(task, store_path=store_path)
                 for task in tasks]
    pool_size = workers if workers is not None else default_workers()
    pool_size = max(1, min(pool_size, max(1, len(tasks))))
    start = time.perf_counter()
    cpu_count = os.cpu_count() or 1

    reports: Dict[int, TaskReport] = {}
    attempts = [0] * len(tasks)
    pending = deque(range(len(tasks)))
    holding: Dict[int, Tuple[int, float]] = {}  # worker -> (task, assigned at)
    idle: List[int] = []
    interrupted = False
    merged_metrics: Dict[str, float] = {}

    def finish(index: int, report: TaskReport) -> None:
        if index in reports:
            # A task reports at most once: a second report must never
            # publish its metrics again or emit a second trace record.
            return
        reports[index] = report
        if report.result is not None:
            obs.publish(report.result.metrics)
            obs.merge_metrics(merged_metrics, report.result.metrics)
            extra = {"workers": pool_size, "cpu_count": cpu_count,
                     "worker_id": report.worker_id,
                     "retried": report.retried}
            if report.result.store_hit:
                extra["store_hit"] = True
            if report.result.store_resumed_from is not None:
                extra["store_resumed_from"] = report.result.store_resumed_from
            report.record = obs.build_run_record(
                report.result, tasks[index].resolved_library(), extra=extra)
        obs.emit("task_finished", label=report.label, status=report.status,
                 worker=report.worker_id, retried=report.retried,
                 runtime=report.runtime)
        if on_report is not None:
            on_report(report)

    def settle(message: Message) -> None:
        index, _ = holding.pop(message.worker, (None, 0.0))
        if message.kind == "died":
            idle.append(pool.spawn())
            if index is None:
                idle.remove(message.worker)  # it died between tasks
            elif attempts[index] == 0:
                attempts[index] = 1
                pending.appendleft(index)  # retry before new work
                obs.emit("worker_retried", worker=message.worker,
                         label=tasks[index].resolved_label())
            else:
                finish(index, TaskReport(
                    label=tasks[index].resolved_label(), status="error",
                    error=f"worker died twice (last exit code "
                          f"{message.value})",
                    worker_id=message.worker, retried=attempts[index]))
            return
        idle.append(message.worker)
        base = dict(label=tasks[index].resolved_label(),
                    worker_id=message.worker, retried=attempts[index],
                    runtime=message.elapsed)
        if message.kind == "ok":
            result, span_tree = message.value
            finish(index, TaskReport(status=result.status, result=result,
                                     span_tree=span_tree, **base))
        else:
            finish(index, TaskReport(status="error", error=message.value,
                                     **base))

    def enforce_hard_deadlines() -> None:
        now = time.perf_counter()
        for worker, (index, assigned_at) in list(holding.items()):
            budget = tasks[index].time_limit
            if (budget is None
                    or now - assigned_at <= budget + hard_deadline_grace):
                continue
            del holding[worker]
            attempts[index] = 2  # an overrun is deterministic
            pool.terminate(worker)
            obs.emit("worker_crashed", worker=worker, role="suite",
                     reason="hard_deadline")
            finish(index, TaskReport(
                label=tasks[index].resolved_label(), status="error",
                error=f"hard deadline exceeded ({budget}s budget + "
                      f"{hard_deadline_grace}s grace)",
                worker_id=worker, runtime=now - assigned_at))
            idle.append(pool.spawn())

    with WorkerPool("suite", _suite_session) as pool:
        idle.extend(pool.spawn() for _ in range(pool_size))
        try:
            with obs.span("suite", tasks=len(tasks), workers=pool_size):
                while len(reports) < len(tasks):
                    while idle and pending:
                        worker, index = idle.pop(0), pending.popleft()
                        pool.send(worker, tasks[index])
                        holding[worker] = (index, time.perf_counter())
                    for message in pool.wait(0.1):
                        settle(message)
                    enforce_hard_deadlines()
        except KeyboardInterrupt:
            # Graceful drain: cancel every engine cooperatively, collect
            # whatever the workers can still report, never leave orphans.
            interrupted = True
            pool.cancel()
            while pending:
                index = pending.popleft()
                reports.setdefault(
                    index, TaskReport(label=tasks[index].resolved_label(),
                                      status="cancelled",
                                      error="interrupted before start"))

            def abandon(worker: int, index: int) -> None:
                reports.setdefault(index, TaskReport(
                    label=tasks[index].resolved_label(), status="cancelled",
                    error="interrupted mid-run", worker_id=worker))

            deadline = time.perf_counter() + drain_grace
            while holding and time.perf_counter() < deadline:
                for message in pool.wait(0.1):
                    if message.kind != "died":
                        settle(message)
                    elif message.worker in holding:
                        abandon(message.worker,
                                holding.pop(message.worker)[0])
            for worker, (index, _) in holding.items():
                abandon(worker, index)

    ordered = [reports[index] for index in range(len(tasks))
               if index in reports]
    if trace is not None:
        # Append in task order, not completion order, so a parallel
        # suite's trace file is byte-comparable with a serial one.
        for report in ordered:
            if report.record is not None:
                obs.append_record(trace, report.record)
    return SuiteRun(reports=ordered, workers=pool_size,
                    runtime=time.perf_counter() - start,
                    interrupted=interrupted, metrics=merged_metrics)
