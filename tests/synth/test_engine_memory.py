"""Driver-level memory management: GC and reordering change resources,
never answers.

The acceptance bar for the packed-table core's memory machinery is
*canonical-record identity*: a run with GC and/or dynamic reordering on
must produce the same canonical record — depth, #SOL, circuits, QC
range, per-depth verdicts — as the default run, byte for byte.  The
``bdd.*`` resource metrics (node counts, gc/reorder counters, store
bytes) are exactly the figures those knobs exist to move, so the
canonical projection strips them; ``bdd.solutions`` is an answer and
stays.
"""

import json

import pytest

import repro.obs as obs
from repro.functions import get_spec
from repro.parallel import SynthesisTask, run_suite
from repro.synth import synthesize
from repro.bdd.manager import BddManager
from repro.bdd.tables import kernel_available
import repro.synth.bdd_engine as bdd_engine
from repro.synth.bdd_engine import BddSynthesisEngine


def _canonical(result):
    return json.dumps(obs.canonical_record(obs.build_run_record(result)),
                      sort_keys=True)


#: Triggers small enough that a 3_17 run actually collects and sifts
#: (asserted below), large enough to keep the test fast.
MEMORY_OPTIONS = {"reorder": 512, "gc_threshold": 2000}


class TestCanonicalIdentity:
    def test_gc_on_off_records_identical(self):
        spec = get_spec("3_17")
        default = synthesize(spec, engine="bdd")
        collected = synthesize(spec, engine="bdd", gc_threshold=2000)
        assert collected.metrics["bdd.gc_runs"] > 0
        assert collected.metrics["bdd.gc_reclaimed"] > 0
        assert _canonical(collected) == _canonical(default)

    def test_reorder_on_off_records_identical(self):
        spec = get_spec("3_17")
        default = synthesize(spec, engine="bdd")
        managed = synthesize(spec, engine="bdd", **MEMORY_OPTIONS)
        assert managed.metrics["bdd.reorder_runs"] > 0
        assert managed.metrics["bdd.reorder_swaps"] > 0
        assert _canonical(managed) == _canonical(default)
        # The knobs' entire effect lives in the stripped resource
        # metrics; the raw records do differ there.
        assert managed.metrics["bdd.peak_nodes"] \
            != default.metrics["bdd.peak_nodes"] \
            or managed.metrics["bdd.gc_runs"] > 0

    def test_serial_vs_parallel_identical_with_reordering(self):
        # The headline acceptance criterion: canonical records stay
        # byte-identical across the process boundary with reordering
        # (and GC) enabled in every worker.
        names = ["3_17", "decod24-v0"]
        tasks = lambda: [SynthesisTask(spec=get_spec(name), engine="bdd",
                                       time_limit=60,
                                       engine_options=dict(MEMORY_OPTIONS))
                         for name in names]
        serial = run_suite(tasks(), workers=1)
        parallel = run_suite(tasks(), workers=2)
        for ser, par in zip(serial.reports, parallel.reports):
            assert ser.ok and par.ok
            assert obs.canonical_record(ser.record) \
                == obs.canonical_record(par.record)


class TestEngineOptions:
    def test_reorder_requires_incremental(self):
        spec = get_spec("3_17")
        from repro.core.library import GateLibrary
        with pytest.raises(ValueError):
            BddSynthesisEngine(spec, GateLibrary.mct(3),
                               incremental=False, reorder=True)

    def test_defaults_leave_memory_machinery_off(self):
        spec = get_spec("3_17")
        from repro.core.library import GateLibrary
        engine = BddSynthesisEngine(spec, GateLibrary.mct(3))
        assert engine.manager._gc_enabled is False
        assert engine.manager._reorder_enabled is False
        for depth in range(7):
            outcome = engine.decide(depth)
        assert outcome.status == "sat"
        # One collection per decided depth (the between-depth reclaim),
        # none at the stage checkpoints.
        assert engine.manager.stats()["gc_runs"] == 7
        assert engine.manager.stats()["reorder_runs"] == 0

    def test_int_reorder_sets_the_sift_trigger(self):
        spec = get_spec("3_17")
        from repro.core.library import GateLibrary
        engine = BddSynthesisEngine(spec, GateLibrary.mct(3), reorder=512)
        assert engine.manager._reorder_enabled is True
        assert engine.manager._reorder_min == 512
        # The X block stays pinned on top (match_forall precondition).
        assert engine.manager._reorder_bounds[0] == engine.n


class TestMemoryMetrics:
    def test_bdd_bytes_and_counters_reach_the_record(self):
        result = synthesize(get_spec("3_17"), engine="bdd",
                            gc_threshold=2000)
        record = obs.build_run_record(result)
        assert obs.validate_run_record(record) == []
        metrics = record["metrics"]
        assert metrics["bdd.bytes"] > 0
        for key in ("bdd.gc_runs", "bdd.gc_reclaimed", "bdd.table_grows",
                    "bdd.reorder_runs", "bdd.reorder_swaps"):
            assert key in metrics
        # Stripped from the canonical projection (resource figures)...
        canonical = obs.canonical_record(record)
        assert not any(k.startswith("bdd.")
                       for k in canonical["metrics"]
                       if k != "bdd.solutions")
        # ...except the one answer metric.
        assert canonical["metrics"]["bdd.solutions"] \
            == result.num_solutions

    def test_gc_lowers_peak_nodes(self):
        spec = get_spec("mod5d1_s")
        default = synthesize(spec, engine="bdd")
        collected = synthesize(spec, engine="bdd", gc_threshold=5000)
        assert collected.metrics["bdd.gc_runs"] > 0
        assert collected.metrics["bdd.peak_nodes"] \
            < default.metrics["bdd.peak_nodes"]
        assert collected.num_solutions == default.num_solutions
        assert sorted(str(c) for c in collected.circuits) \
            == sorted(str(c) for c in default.circuits)


@pytest.mark.skipif(not kernel_available(), reason="native kernel unavailable")
class TestKernelParity:
    """The engine with the native kernel on and off.

    The tables are byte-identical either way (tests/bdd/test_gc.py), so
    answers, node counts, quantifier work and table growth agree per
    depth.  ``bdd.ite_calls`` is the one counter that may not: a kernel
    call that pauses (allocation budget, empty free list, table at its
    load limit) is replayed, and the replay's computed-cache hits count
    as calls, so the kernel reports at least as many as the pure loops.
    """

    #: Per-depth ``bdd.ite_calls`` of 3_17 with the kernel; pins the
    #: pause/replay accounting (and the cache behaviour it depends on)
    #: across changes to the kernel's table upkeep.
    KERNEL_ITE_CALLS_3_17 = [0, 54, 574, 2098, 4869, 8674, 18768]

    @staticmethod
    def _per_depth(result):
        return [(d.depth, d.metrics["bdd.quant_calls"],
                 d.metrics["bdd.table_grows"], d.metrics["bdd.nodes"],
                 d.metrics["bdd.peak_nodes"], d.metrics["bdd.eq_size"])
                for d in result.per_depth]

    @pytest.mark.parametrize("name, options", [
        ("3_17", {}), ("mod5d1_s", {}),
        # Checkpoint GC: the native sweep inside the engine.
        ("3_17", {"gc_threshold": 2000})])
    def test_kernel_on_off_identical(self, name, options, monkeypatch):
        spec = get_spec(name)
        native = synthesize(spec, engine="bdd", **options)
        monkeypatch.setattr(
            bdd_engine, "BddManager",
            lambda *args, **kwargs: BddManager(*args, use_kernel=False,
                                               **kwargs))
        pure = synthesize(spec, engine="bdd", **options)
        assert [str(c) for c in native.circuits] \
            == [str(c) for c in pure.circuits]
        assert self._per_depth(native) == self._per_depth(pure)
        assert native.metrics["bdd.table_grows"] > 0
        for ours, theirs in zip(native.per_depth, pure.per_depth):
            assert ours.metrics["bdd.ite_calls"] \
                >= theirs.metrics["bdd.ite_calls"]
        if options:
            assert native.metrics["bdd.gc_reclaimed"] \
                == pure.metrics["bdd.gc_reclaimed"] > 0
        elif name == "3_17":
            assert [d.metrics["bdd.ite_calls"] for d in native.per_depth] \
                == self.KERNEL_ITE_CALLS_3_17
