"""Regression: crash-retried tasks must yield exactly one record each."""

import collections
import os
import threading
import time
from contextlib import contextmanager

import repro.obs as obs
from repro.functions import get_spec
from repro.parallel import SynthesisTask, run_suite
from repro.parallel.pool import WorkerPool
from repro.parallel.scheduler import TaskReport


def _tasks(names, **kwargs):
    return [SynthesisTask(spec=get_spec(name), engine="bdd",
                          time_limit=60, **kwargs) for name in names]


def test_crash_retried_task_emits_exactly_one_trace_record(tmp_path):
    """A mid-task SIGKILL plus retry must not duplicate the task's
    record in the exported trace — one task, one line, ``retried=1``."""
    trace = str(tmp_path / "suite.jsonl")
    tomb = str(tmp_path / "crash.tomb")
    tasks = _tasks(["3_17", "decod24-v0", "mod5d1_s"])
    tasks[1].crash_once_file = tomb
    run = run_suite(tasks, workers=2, trace=trace)
    assert all(r.ok for r in run.reports)
    records, torn = obs.read_trace(trace)
    assert torn == 0
    specs = collections.Counter(r["spec"] for r in records)
    assert len(records) == 3
    assert max(specs.values()) == 1, f"duplicate records: {specs}"
    retried = [r for r in records if r["retried"]]
    assert len(retried) == 1
    assert retried[0]["spec"] == "decod24-v0"


@contextmanager
def _reply_then_exit(token):
    """Answer a request, then kill the worker right after the reply."""
    def handle(request):
        threading.Timer(0.2, os._exit, (7,)).start()
        return request

    yield handle


def test_reply_before_death_finishes_the_request_once():
    """A worker that sends its reply and then dies yields the reply
    first and the death second, so the request it held finishes
    exactly once and is never mistaken for a lost one (which the suite
    would retry, finishing the task twice)."""
    with WorkerPool("suite", _reply_then_exit) as pool:
        worker = pool.spawn()
        pool.send(worker, "task-0")
        time.sleep(0.5)  # reply and death both pending before wait()
        messages = []
        deadline = time.monotonic() + 30
        while (not any(m.kind == "died" for m in messages)
               and time.monotonic() < deadline):
            messages.extend(pool.wait(0.1))
    assert [(m.worker, m.kind, m.value) for m in messages] \
        == [(worker, "ok", "task-0"), (worker, "died", 7)]


def test_crashed_then_retried_store_task_reuses_banked_bounds(tmp_path):
    """A task killed mid-run and retried picks up whatever its first
    attempt banked in the shared store — and still produces exactly one
    record."""
    trace = str(tmp_path / "suite.jsonl")
    root = str(tmp_path / "store")
    tomb = str(tmp_path / "crash.tomb")
    tasks = _tasks(["3_17"])
    tasks[0].crash_once_file = tomb
    run = run_suite(tasks, workers=1, trace=trace, store=root)
    assert run.reports[0].ok
    assert run.reports[0].retried == 1
    records, torn = obs.read_trace(trace)
    assert torn == 0
    assert len(records) == 1
    assert records[0]["retried"] == 1


def test_task_report_ok_contract():
    report = TaskReport(label="x", status="realized", result=object())
    assert report.ok
    assert not TaskReport(label="x", status="error").ok
