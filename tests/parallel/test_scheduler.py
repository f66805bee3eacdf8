"""Suite scheduler: pooling, crash isolation, record provenance."""

import os

from repro.core.spec import Specification
from repro.functions import get_spec
import repro.obs as obs
from repro.parallel import SynthesisTask, run_suite


def _tasks(names, engine="bdd", **kwargs):
    return [SynthesisTask(spec=get_spec(name), engine=engine,
                          time_limit=60, **kwargs) for name in names]


def test_suite_runs_all_tasks_and_aligns_reports():
    names = ["3_17", "decod24-v0", "mod5d1_s"]
    run = run_suite(_tasks(names), workers=2)
    assert len(run.reports) == 3
    assert run.workers == 2
    for name, report in zip(names, run.reports):
        assert report.ok
        assert report.status == "realized"
        assert report.label == f"{name}/bdd/mct"
        assert report.worker_id in (0, 1)
        assert report.retried == 0


def test_suite_records_are_schema_valid_with_provenance(tmp_path):
    trace = str(tmp_path / "suite.jsonl")
    run = run_suite(_tasks(["3_17", "decod24-v0"]), workers=2, trace=trace)
    records = obs.read_records(trace)
    assert len(records) == 2
    for record in records:
        assert obs.validate_run_record(record) == []
        assert record["workers"] == 2
        assert record["cpu_count"] == (os.cpu_count() or 1)
        assert record["retried"] == 0
        assert record["worker_id"] >= 0


def test_suite_parallel_records_match_serial_records():
    names = ["3_17", "decod24-v0", "mod5d1_s"]
    serial = run_suite(_tasks(names), workers=1)
    parallel = run_suite(_tasks(names), workers=3)
    for ser, par in zip(serial.reports, parallel.reports):
        assert obs.canonical_record(ser.record) \
            == obs.canonical_record(par.record)


def test_sigkilled_worker_is_retried_exactly_once(tmp_path):
    tomb = str(tmp_path / "crash.tomb")
    tasks = _tasks(["3_17", "decod24-v0"])
    tasks[1].crash_once_file = tomb
    run = run_suite(tasks, workers=2)
    healthy, crashed = run.reports
    assert healthy.ok and healthy.retried == 0
    assert crashed.ok and crashed.status == "realized"
    assert crashed.retried == 1
    assert crashed.record["retried"] == 1
    # The retry ran on a freshly spawned worker, not a pool original.
    assert crashed.worker_id >= 2
    assert os.path.exists(tomb)


def test_failing_task_is_isolated_from_the_rest_of_the_batch():
    # An in-worker Python error (unknown engine) must not consume a
    # crash retry, poison the pool, or affect sibling tasks.
    tasks = _tasks(["3_17"])
    tasks.insert(0, SynthesisTask(spec=get_spec("3_17"), engine="mystery"))
    run = run_suite(tasks, workers=2)
    failed, healthy = run.reports
    assert failed.status == "error"
    assert failed.result is None
    assert failed.retried == 0
    assert "mystery" in failed.error
    assert healthy.ok and healthy.status == "realized"


def test_suite_metrics_merge_equals_per_task_sums():
    names = ["3_17", "decod24-v0"]
    run = run_suite(_tasks(names), workers=2)
    expected = {}
    for report in run.reports:
        obs.merge_metrics(expected, report.result.metrics)
    assert run.metrics == expected


def test_empty_suite_is_a_noop():
    run = run_suite([], workers=2)
    assert run.reports == []
    assert not run.interrupted


def test_mixed_engines_in_one_batch():
    spec = Specification.from_permutation((0, 2, 1, 3), name="swap")
    tasks = [SynthesisTask(spec=spec, engine=engine, time_limit=60)
             for engine in ("bdd", "sat", "sword", "qbf")]
    run = run_suite(tasks, workers=2)
    assert all(r.ok and r.result.depth == 3 for r in run.reports)


def test_traced_span_trees_hold_only_their_own_task():
    # One worker runs every task; each report's tree must cover that
    # task alone, not every task the worker ran before it.
    obs.set_tracing(True)
    try:
        run = run_suite(_tasks(["3_17"] * 6), workers=1)
    finally:
        obs.set_tracing(False)
    trees = [report.span_tree for report in run.reports]
    assert all(report.ok for report in run.reports)
    assert len({len(tree.splitlines()) for tree in trees}) == 1
    for tree in trees:
        roots = [line for line in tree.splitlines()
                 if not line.startswith(" ")]
        assert len(roots) == 1 and roots[0].startswith("suite.task")


class _RepliesFirstPool:
    """In-process stand-in for ``WorkerPool`` that runs each task on
    ``send`` and hands a round's replies to ``wait`` ahead of its
    deaths — the order in which a fast sibling finishes before the
    crash is settled."""

    def __init__(self, name, session):
        self._next = 0
        self._inbox = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pass

    def spawn(self):
        self._next += 1
        return self._next - 1

    def send(self, worker, task):
        from repro.parallel.pool import Message
        tomb = task.crash_once_file
        if tomb is not None and not os.path.exists(tomb):
            open(tomb, "w").close()
            self._inbox.append(Message(worker, "died", -9, 0.0))
        else:
            self._inbox.append(Message(worker, "ok", (task.run(), None), 0.0))

    def wait(self, timeout):
        batch = sorted(self._inbox, key=lambda m: m.kind == "died")
        self._inbox = []
        return batch

    def cancel(self):
        pass


def test_retry_runs_on_the_fresh_worker_when_a_sibling_replied_first(
        tmp_path, monkeypatch):
    import repro.parallel.scheduler as scheduler
    monkeypatch.setattr(scheduler, "WorkerPool", _RepliesFirstPool)
    tasks = _tasks(["toffoli", "decod24-v0"])
    tasks[1].crash_once_file = str(tmp_path / "crash.tomb")
    run = run_suite(tasks, workers=2)
    healthy, crashed = run.reports
    assert healthy.ok and healthy.worker_id == 0
    assert crashed.ok and crashed.retried == 1
    assert crashed.worker_id == 2  # the worker spawned for the retry
