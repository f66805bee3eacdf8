"""Live event streaming: ordering, multiprocess forwarding, identity.

The two contracts pinned here:

* **observation, not participation** — subscribing to the event bus
  must leave the canonical run record byte-identical on every
  execution path (serial driver, suite pool, portfolio race,
  speculative pipeline);
* **liveness** — a parent process sees a worker's depth-by-depth
  events *while the worker runs*, i.e. strictly before that worker's
  task completion is reported.
"""

import json

import pytest

import repro.obs as obs
from repro.functions import get_spec
from repro.parallel import SynthesisTask, run_suite
from repro.parallel.portfolio import portfolio_synthesize
from repro.store import derive_store_key, open_store
from repro.synth import synthesize


@pytest.fixture(autouse=True)
def _clean_bus():
    obs.reset_event_bus()
    yield
    obs.reset_event_bus()


def _canonical(result):
    return json.dumps(obs.canonical_record(obs.build_run_record(result)),
                      sort_keys=True)


def _events_of(kind, events):
    return [e for e in events if e["event"] == kind]


# -- serial driver ------------------------------------------------------------

def test_serial_deepening_emits_ordered_schema_valid_events():
    stream = obs.event_stream()
    result = synthesize(get_spec("3_17"), engine="sat")
    events = stream.drain()
    stream.close()

    assert all(obs.validate_event(e) == [] for e in events)
    # One started/refuted pair per UNSAT depth, in deepening order.
    started = [e["depth"] for e in _events_of("depth_started", events)]
    refuted = [e["depth"] for e in _events_of("depth_refuted", events)]
    assert started == list(range(result.depth + 1))
    assert refuted == list(range(result.depth))
    # Every refutation is announced as the new proven bound.
    assert all(e["proven_bound"] == e["depth"]
               for e in _events_of("depth_refuted", events))
    solved = _events_of("solution_found", events)
    assert len(solved) == 1 and solved[0]["depth"] == result.depth
    finished = _events_of("run_finished", events)
    assert len(finished) == 1 and finished[0]["status"] == "realized"
    assert events[-1]["event"] == "run_finished"
    # seq is strictly monotone within one origin process.
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_serial_events_on_off_identical_canonical_record():
    off = synthesize(get_spec("3_17"), engine="sat")
    stream = obs.event_stream()
    on = synthesize(get_spec("3_17"), engine="sat")
    stream.close()
    assert _canonical(on) == _canonical(off)


# -- persistent store ---------------------------------------------------------

def test_store_hit_and_bound_resume_events(tmp_path):
    store = str(tmp_path / "store")
    spec = get_spec("3_17")
    synthesize(spec, engine="bdd", store=store)  # cold: commits

    stream = obs.event_stream()
    warm = synthesize(spec, engine="bdd", store=store)
    events = stream.drain()
    assert warm.store_hit
    hits = _events_of("store_hit", events)
    assert len(hits) == 1 and hits[0]["engine"] == "bdd"
    finished = _events_of("run_finished", events)
    assert len(finished) == 1 and finished[0].get("store_hit") is True
    assert _events_of("depth_started", events) == []  # no engine ran
    stream.close()


def test_bound_resumed_event(tmp_path):
    store_dir = str(tmp_path / "store")
    spec = get_spec("3_17")
    from repro.core.library import GateLibrary
    library = GateLibrary.from_kinds(spec.n_lines, ("mct",))
    key = derive_store_key(spec, library, "sat").bounds_key
    handle = open_store(store_dir)
    handle.bank_bound(key, 3)  # depths 0..3 proven UNSAT by a past run

    stream = obs.event_stream()
    result = synthesize(spec, engine="sat", store=store_dir)
    events = stream.drain()
    stream.close()
    assert result.store_resumed_from == 3
    resumed = _events_of("bound_resumed", events)
    assert len(resumed) == 1 and resumed[0]["bound"] == 3
    assert min(e["depth"] for e in _events_of("depth_started", events)) == 4


# -- suite pool ---------------------------------------------------------------

def test_suite_forwards_worker_events_live_before_completion():
    stream = obs.event_stream(maxlen=4096)
    tasks = [SynthesisTask(spec=get_spec(name), engine="sat", time_limit=60)
             for name in ("3_17", "decod24-v0")]
    run = run_suite(tasks, workers=2)
    events = stream.drain()
    stream.close()
    assert all(r.ok for r in run.reports)
    assert all(obs.validate_event(e) == [] for e in events)

    spawned = _events_of("worker_spawned", events)
    assert {e["worker"] for e in spawned} == {0, 1}
    assert all(e["role"] == "suite" for e in spawned)

    # Depth activity from inside each worker arrived with worker
    # provenance, and strictly before that task finished.
    finishes = {e["label"]: i for i, e in enumerate(events)
                if e["event"] == "task_finished"}
    assert len(finishes) == 2
    for report in run.reports:
        spec_name = report.label.split("/")[0]
        depth_indices = [i for i, e in enumerate(events)
                         if e["event"] == "depth_refuted"
                         and e["spec"] == spec_name]
        assert depth_indices, f"no live depth events for {report.label}"
        assert max(depth_indices) < finishes[report.label]
        workers_seen = {events[i].get("worker") for i in depth_indices}
        assert workers_seen == {report.worker_id}


def test_suite_events_on_off_identical_canonical_records():
    def tasks():
        return [SynthesisTask(spec=get_spec(name), engine="bdd",
                              time_limit=60)
                for name in ("3_17", "decod24-v0")]

    off = run_suite(tasks(), workers=2)
    stream = obs.event_stream(maxlen=4096)
    on = run_suite(tasks(), workers=2)
    stream.close()
    for off_report, on_report in zip(off.reports, on.reports):
        assert obs.canonical_record(on_report.record) \
            == obs.canonical_record(off_report.record)


def test_suite_crash_retry_emits_lifecycle_events(tmp_path):
    stream = obs.event_stream(maxlen=4096)
    tasks = [SynthesisTask(spec=get_spec("3_17"), engine="bdd",
                           time_limit=60)]
    tasks[0].crash_once_file = str(tmp_path / "crash.tomb")
    run = run_suite(tasks, workers=1)
    events = stream.drain()
    stream.close()
    assert run.reports[0].ok and run.reports[0].retried == 1

    crashed = _events_of("worker_crashed", events)
    assert len(crashed) == 1 and crashed[0]["role"] == "suite"
    retried = _events_of("worker_retried", events)
    assert len(retried) == 1
    assert retried[0]["label"] == run.reports[0].label
    finished = _events_of("task_finished", events)
    assert len(finished) == 1 and finished[0]["retried"] == 1
    # Replacement worker announced itself after the crash.
    spawns = [i for i, e in enumerate(events)
              if e["event"] == "worker_spawned"]
    assert len(spawns) == 2


# -- portfolio race -----------------------------------------------------------

def test_portfolio_forwards_racer_events_and_reports_winner():
    spec = get_spec("3_17")
    from repro.core.library import GateLibrary
    library = GateLibrary.from_kinds(spec.n_lines, ("mct",))
    stream = obs.event_stream(maxlen=4096)
    result = portfolio_synthesize(spec, library, engines=("bdd", "sat"))
    events = stream.drain()
    stream.close()
    assert result.realized
    assert all(obs.validate_event(e) == [] for e in events)

    spawned = _events_of("worker_spawned", events)
    assert {e["engine"] for e in spawned} == {"bdd", "sat"}
    assert all(e["role"] == "portfolio" for e in spawned)
    # Racer deepening was forwarded with racer provenance.
    refuted = _events_of("depth_refuted", events)
    assert refuted and all("worker" in e for e in refuted)
    finished = _events_of("run_finished", events)[-1]
    assert finished["engine"] == "portfolio"
    assert finished["winner_engine"] == result.winner_engine


def test_portfolio_events_on_off_identical_canonical_record():
    spec = get_spec("3_17")
    from repro.core.library import GateLibrary
    library = GateLibrary.from_kinds(spec.n_lines, ("mct",))
    # A single-racer portfolio is deterministic (no race to win, no
    # cancelled-loser noise), which is what identity needs.
    off = portfolio_synthesize(spec, library, engines=("bdd",))
    stream = obs.event_stream(maxlen=4096)
    on = portfolio_synthesize(spec, library, engines=("bdd",))
    stream.close()
    assert _canonical(on) == _canonical(off)


# -- speculative pipeline -----------------------------------------------------

def test_speculative_emits_commit_ordered_events():
    spec = get_spec("3_17")
    from repro.core.library import GateLibrary
    library = GateLibrary.from_kinds(spec.n_lines, ("mct",))
    stream = obs.event_stream(maxlen=4096)
    result = synthesize(spec, library, engine="sat", workers=2)
    events = stream.drain()
    stream.close()
    assert result.realized
    assert all(obs.validate_event(e) == [] for e in events)

    spawned = _events_of("worker_spawned", events)
    assert len(spawned) == 2
    assert all(e["role"] == "speculative" for e in spawned)
    dispatched = _events_of("depth_started", events)
    assert all(e["speculative"] for e in dispatched)
    # Commits advance in exact deepening order even though depths are
    # decided out of order across workers.
    committed = [e["depth"]
                 for e in _events_of("speculation_committed", events)]
    assert committed == list(range(result.depth + 1))
    refuted = [e["depth"] for e in _events_of("depth_refuted", events)]
    assert refuted == list(range(result.depth))
    assert len(_events_of("solution_found", events)) == 1
    assert len(_events_of("speculation_wasted", events)) == 1
    assert events[-1]["event"] == "run_finished"


def test_speculative_events_on_off_identical_canonical_record():
    spec = get_spec("3_17")
    from repro.core.library import GateLibrary
    library = GateLibrary.from_kinds(spec.n_lines, ("mct",))
    # Scratch (non-incremental) decides make every per-depth counter a
    # pure function of (spec, depth): which worker answered which depth
    # stops mattering, so the record is fully deterministic.
    options = {"incremental": False}
    off = synthesize(spec, library, engine="sat", workers=2, **options)
    stream = obs.event_stream(maxlen=4096)
    on = synthesize(spec, library, engine="sat", workers=2, **options)
    stream.close()
    assert _canonical(on) == _canonical(off)
    # And the pipelined canonical record equals the serial one: the
    # speculation metrics are scheduling provenance, not answer.
    serial = synthesize(spec, engine="sat", incremental=False)
    assert _canonical(off) == _canonical(serial)
