"""The BDD engine's memory accounting: one reclaim, reported per depth.

The engine reclaims with ``BddManager.gc`` after every decided depth and
nowhere else.  The ``bdd.*`` resource metrics (node counts, gc
counters, store bytes) reach the run record but are stripped from its
canonical projection; ``bdd.solutions`` is an answer and stays.  With
the native kernel on and off the tables, and so the per-depth figures,
are the same.
"""

import pytest

import repro.obs as obs
from repro.core.library import GateLibrary
from repro.functions import get_spec
from repro.synth import synthesize
from repro.bdd.manager import BddManager
from repro.bdd.tables import kernel_available
import repro.synth.bdd_engine as bdd_engine
from repro.synth.bdd_engine import BddSynthesisEngine


class TestEngineOptions:
    def test_defaults_leave_memory_machinery_off(self):
        spec = get_spec("3_17")
        engine = BddSynthesisEngine(spec, GateLibrary.mct(3))
        for depth in range(7):
            outcome = engine.decide(depth)
        assert outcome.status == "sat"
        # One collection per decided depth (the between-depth reclaim),
        # none inside a depth.
        assert engine.manager.stats()["gc_runs"] == 7


class TestMemoryMetrics:
    def test_bdd_bytes_and_counters_reach_the_record(self):
        result = synthesize(get_spec("3_17"), engine="bdd")
        record = obs.build_run_record(result)
        assert obs.validate_run_record(record) == []
        metrics = record["metrics"]
        assert metrics["bdd.bytes"] > 0
        for key in ("bdd.gc_runs", "bdd.gc_reclaimed", "bdd.table_grows"):
            assert key in metrics
        # Stripped from the canonical projection (resource figures)...
        canonical = obs.canonical_record(record)
        assert not any(k.startswith("bdd.")
                       for k in canonical["metrics"]
                       if k != "bdd.solutions")
        # ...except the one answer metric.
        assert canonical["metrics"]["bdd.solutions"] \
            == result.num_solutions


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
        ("3_17", {}), ("mod5d1_s", {})])
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
        if name == "3_17":
            assert [d.metrics["bdd.ite_calls"] for d in native.per_depth] \
                == self.KERNEL_ITE_CALLS_3_17
