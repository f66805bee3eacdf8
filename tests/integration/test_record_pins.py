"""Pinned run records of 3_17 through every entry point.

``record_pins.json`` holds the run record 3_17 gets on each path that
builds one:

* ``serial`` — ``synthesize(engine="sat", trace=...)``;
* ``speculative`` — ``synthesize(engine="sat", workers=2, trace=...)``;
* ``portfolio`` — a one-racer ``portfolio_synthesize`` (one racer makes
  the winner and the loser metrics deterministic);
* ``suite`` — ``run_suite`` on one worker;
* ``store_hit`` / ``store_resumed`` — a second run against a warm store,
  and a run resuming after a banked UNSAT bound;
* ``serve_leader`` / ``serve_follower`` / ``serve_store`` — the records
  of ``repro serve``'s three reply kinds.

Everything is compared except wall-clock figures (``runtime``,
``unix_time`` and each depth's ``runtime``) and two host facts
(``cpu_count`` must equal this machine's, ``versions.python`` this
interpreter's).  The speculative record is compared on what does not
depend on which worker decided which depth: the key set, the answer,
the per-depth decisions and ``workers``.

The records were recorded before the driver took over speculation's
run bookkeeping; they must not move.  Regenerate the file only for a
deliberate change of what a record holds::

    PYTHONPATH=src python -m tests.integration.test_record_pins \\
        > tests/integration/record_pins.json
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
import time
from typing import Callable, Dict

import pytest

import repro.obs as obs
from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.core.transform import LineTransform, OrbitTransform
from repro.functions import get_spec
from repro.parallel import SynthesisTask, run_suite
from repro.parallel.portfolio import portfolio_synthesize
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.store import derive_store_key, open_store
from repro.synth import synthesize

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "record_pins.json")
SPEC = "3_17"
ENGINE = "sat"


def normalize(record: Dict) -> Dict:
    """The record minus wall-clock figures, host facts checked here."""
    out = json.loads(json.dumps(record))
    del out["runtime"], out["unix_time"]
    for step in out["per_depth"]:
        del step["runtime"]
    if out.get("cpu_count") == (os.cpu_count() or 1):
        out["cpu_count"] = "this-host"
    if out["versions"]["python"] == "%d.%d.%d" % sys.version_info[:3]:
        out["versions"]["python"] = "this-python"
    return out


def speculative_view(record: Dict) -> Dict:
    """What a pipelined record shares with every rerun of itself."""
    return {
        "keys": sorted(record),
        "answer": {key: record[key] for key in (
            "status", "depth", "num_solutions", "num_circuits",
            "quantum_cost_min", "quantum_cost_max", "incremental")},
        "per_depth": [[step["depth"], step["decision"]]
                      for step in record["per_depth"]],
        "workers": record["workers"],
    }


def _library() -> GateLibrary:
    return GateLibrary.from_kinds(3, ("mct",))


def _traced(tmp: str, name: str, run: Callable[[str], object]) -> Dict:
    trace = os.path.join(tmp, f"{name}.jsonl")
    run(trace)
    records = obs.read_records(trace)
    assert len(records) == 1, records
    return records[0]


def record_serial(tmp: str) -> Dict:
    return {"serial": normalize(_traced(tmp, "serial", lambda trace: (
        synthesize(get_spec(SPEC), engine=ENGINE, trace=trace))))}


def record_speculative(tmp: str) -> Dict:
    return {"speculative": speculative_view(_traced(
        tmp, "speculative", lambda trace: synthesize(
            get_spec(SPEC), engine=ENGINE, workers=2, trace=trace)))}


def record_portfolio(tmp: str) -> Dict:
    return {"portfolio": normalize(_traced(
        tmp, "portfolio", lambda trace: portfolio_synthesize(
            get_spec(SPEC), _library(), engines=(ENGINE,), trace=trace)))}


def record_suite(tmp: str) -> Dict:
    run = run_suite([SynthesisTask(spec=get_spec(SPEC), engine=ENGINE)],
                    workers=1)
    return {"suite": normalize(run.reports[0].record)}


def record_store(tmp: str) -> Dict:
    store = os.path.join(tmp, "store")
    synthesize(get_spec(SPEC), engine=ENGINE, store=store)
    hit = _traced(tmp, "hit", lambda trace: synthesize(
        get_spec(SPEC), engine=ENGINE, store=store, trace=trace))

    banked = os.path.join(tmp, "banked")
    key = derive_store_key(get_spec(SPEC), _library(), ENGINE).bounds_key
    open_store(banked).bank_bound(key, 3)
    resumed = _traced(tmp, "resumed", lambda trace: synthesize(
        get_spec(SPEC), engine=ENGINE, store=banked, trace=trace))
    return {"store_hit": normalize(hit), "store_resumed": normalize(resumed)}


def _follower_spec() -> Specification:
    relabel = OrbitTransform(LineTransform(3, (2, 0, 1)))
    return Specification.from_permutation(
        relabel.apply_to_table(get_spec(SPEC).permutation()),
        name=f"{SPEC}~relabeled")


def _wait_for(client: ServeClient, field: str) -> None:
    for _ in range(500):
        if client.stats()[field] >= 1:
            return
        time.sleep(0.02)
    raise AssertionError(f"the daemon never reported {field}")


def record_serve(tmp: str) -> Dict:
    config = ServeConfig(port=0, store=os.path.join(tmp, "serve-store"),
                         max_concurrency=1, drain_grace=0.5)
    thread = ServerThread(config)
    server = thread.start()
    replies: Dict[str, Dict] = {}

    def submit(tag: str, **request) -> None:
        with ServeClient(address, timeout=120.0) as client:
            replies[tag] = client.synth_wait(**request)

    try:
        address = server.addresses[0]
        # Occupy the single worker so the leader queues and the
        # follower attaches to it instead of reading the store.
        blocker = ServeClient(address, timeout=120.0)
        blocker_frames = blocker.synth(benchmark="hwb4", engine="sat",
                                       kinds="mpmct", time_limit=4.0)
        _wait_for(blocker, "active_jobs")
        leader = threading.Thread(target=submit, args=("leader",),
                                  kwargs=dict(benchmark=SPEC, engine=ENGINE))
        leader.start()
        _wait_for(blocker, "queued_jobs")
        follower_spec = _follower_spec()
        follower = threading.Thread(
            target=submit, args=("follower",),
            kwargs=dict(perm=list(follower_spec.permutation()),
                        name=follower_spec.name, engine=ENGINE))
        follower.start()
        for worker in (leader, follower):
            worker.join(timeout=120)
        for _frame in blocker_frames:
            pass
        blocker.close()
        submit("store", benchmark=SPEC, engine=ENGINE)
    finally:
        thread.shutdown()
    expected = {"leader": ("synthesis", False), "follower": ("follower", True),
                "store": ("store", False)}
    for tag, (served, coalesced) in expected.items():
        assert (replies[tag]["served"], replies[tag]["coalesced"]) \
            == (served, coalesced), tag
    return {f"serve_{tag}": normalize(replies[tag]["record"])
            for tag in expected}


RECORDERS = {
    "serial": record_serial,
    "speculative": record_speculative,
    "portfolio": record_portfolio,
    "suite": record_suite,
    "store": record_store,
    "serve": record_serve,
}


@pytest.fixture(scope="module")
def pins() -> Dict:
    with open(PINS_PATH) as handle:
        return json.load(handle)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset_event_bus()
    obs.default_registry().reset()
    yield
    obs.reset_event_bus()
    obs.default_registry().reset()


@pytest.mark.parametrize("path", sorted(RECORDERS))
def test_record_matches_pin(path, pins, tmp_path):
    got = RECORDERS[path](str(tmp_path))
    assert got == {name: pins[name] for name in got}


if __name__ == "__main__":
    recorded: Dict = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, recorder in RECORDERS.items():
            path = os.path.join(scratch, name)
            os.mkdir(path)
            recorded.update(recorder(path))
    print(json.dumps(recorded, indent=1, sort_keys=True))
