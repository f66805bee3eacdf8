"""Speculative depth pipelining: serial trajectory, honest waste."""

import multiprocessing
import os
import signal
import threading

import pytest

from repro.core.cancel import CancelToken
from repro.core.spec import Specification
from repro.functions import get_spec
import repro.obs as obs
from repro.synth import driver, synthesize
from repro.synth.sat_engine import SatBaselineEngine


def swap_spec():
    return Specification.from_permutation((0, 2, 1, 3), name="swap")


@pytest.mark.parametrize("engine", ("sat", "sword", "qbf"))
def test_pipelined_trajectory_matches_serial(engine):
    spec = get_spec("3_17")
    serial = synthesize(spec, engine=engine, time_limit=120)
    piped = synthesize(spec, engine=engine, workers=3, time_limit=120)
    assert serial.realized and piped.realized
    assert piped.depth == serial.depth == 6
    assert [(s.depth, s.decision) for s in piped.per_depth] \
        == [(s.depth, s.decision) for s in serial.per_depth]
    assert (piped.quantum_cost_min, piped.quantum_cost_max) \
        == (serial.quantum_cost_min, serial.quantum_cost_max)
    assert spec.matches_circuit(piped.circuit)


def test_wasted_speculation_is_accounted():
    result = synthesize(get_spec("3_17"), engine="sat", workers=4,
                        time_limit=120)
    assert result.realized
    dispatched = result.metrics["driver.speculation_dispatched"]
    wasted = result.metrics["driver.speculation_wasted_depths"]
    # Committed depths 0..6 plus whatever was speculated past the answer.
    assert dispatched == len(result.per_depth) + wasted
    assert wasted == result.speculation_wasted_depths
    assert result.workers == 4


def test_speculative_run_record_carries_provenance(tmp_path):
    trace = str(tmp_path / "spec.jsonl")
    result = synthesize(swap_spec(), engine="sword", workers=2,
                        time_limit=60, trace=trace)
    assert result.realized and result.depth == 3
    records = obs.read_records(trace)
    assert len(records) == 1
    assert obs.validate_run_record(records[0]) == []
    assert records[0]["workers"] == 2
    assert records[0]["speculation_wasted_depths"] \
        == result.speculation_wasted_depths


def test_bdd_workers_is_a_serial_passthrough():
    """workers>1 with the incremental BDD engine documents a fallback."""
    result = synthesize(swap_spec(), engine="bdd", workers=4)
    assert result.realized and result.depth == 3
    # No speculation metrics: the run was the ordinary serial cascade.
    assert "driver.speculation_dispatched" not in result.metrics


def test_gate_limit_reached_speculatively():
    # SWAP needs 3 CNOTs; a 0-gate cap answers gate_limit, same as serial.
    result = synthesize(swap_spec(), engine="sat", workers=3, max_gates=0)
    assert result.status == "gate_limit"


def test_speculative_aggregate_matches_per_depth_sums():
    result = synthesize(get_spec("3_17"), engine="sat", workers=3,
                        time_limit=120)
    totals = {}
    for step in result.per_depth:
        obs.merge_metrics(totals, step.metrics)
    for key, value in totals.items():
        assert result.metrics[key] == value


class _KilledAtDepth3(SatBaselineEngine):
    """A SAT engine whose depth server SIGKILLs itself on depth 3."""

    def decide(self, depth, time_limit=None):
        if depth == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().decide(depth, time_limit=time_limit)


def test_dead_depth_server_raises_and_leaves_no_child(monkeypatch):
    monkeypatch.setitem(driver.ENGINES, "sat", _KilledAtDepth3)
    with pytest.raises(RuntimeError,
                       match=r"^depth-3 worker died \(exit code -9\)$"):
        synthesize(get_spec("3_17"), engine="sat", workers=2,
                   time_limit=60)
    assert multiprocessing.active_children() == []


class TestCallerCancellation:
    """A pipelined run honours the caller's token like a serial run."""

    def test_token_set_before_the_run(self):
        event = threading.Event()
        event.set()
        token = CancelToken(event)
        serial = synthesize(get_spec("3_17"), engine="sat",
                            cancel_token=token)
        piped = synthesize(get_spec("3_17"), engine="sat", workers=2,
                           cancel_token=token)
        assert serial.status == piped.status == "cancelled"
        assert serial.per_depth == piped.per_depth == []

    def test_token_set_mid_run(self):
        stop = threading.Event()

        def cancel_after_depth_one(event):
            if event["event"] == "depth_refuted" and event["depth"] == 1:
                stop.set()

        unsubscribe = obs.subscribe(cancel_after_depth_one)
        try:
            result = synthesize(get_spec("3_17"), engine="sat", workers=2,
                                time_limit=120, cancel_token=CancelToken(stop))
        finally:
            unsubscribe()
        assert result.status == "cancelled"
        assert [(s.depth, s.decision) for s in result.per_depth] \
            == [(0, "unsat"), (1, "unsat")]
