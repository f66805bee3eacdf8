"""BDD-engine specifics: incrementality, variable orders, extraction."""

import pytest

from repro.core.circuit import Circuit
from repro.core.gates import Toffoli
from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.synth.bdd_engine import BddSynthesisEngine


SPEC_317 = Specification.from_permutation((7, 1, 4, 3, 0, 2, 6, 5), name="3_17")


def cnot_spec():
    perm = []
    for i in range(4):
        a, b = i & 1, (i >> 1) & 1
        perm.append(a | ((a ^ b) << 1))
    return Specification.from_permutation(perm, name="cnot")


class TestIncrementalVsMonolithic:
    def test_same_verdicts_and_counts(self):
        spec = cnot_spec()
        library = GateLibrary.mct(2)
        incremental = BddSynthesisEngine(spec, library, incremental=True)
        for depth in range(3):
            monolithic = BddSynthesisEngine(spec, library, incremental=False)
            a = incremental.decide(depth)
            b = monolithic.decide(depth)
            assert a.status == b.status, depth
            if a.status == "sat":
                assert a.num_solutions == b.num_solutions
                assert set(a.circuits) == set(b.circuits)

    def test_incremental_requires_non_decreasing_depths(self):
        engine = BddSynthesisEngine(cnot_spec(), GateLibrary.mct(2))
        engine.decide(2)
        with pytest.raises(ValueError):
            engine.decide(1)

    def test_monolithic_allows_any_order(self):
        # MCT(2) has q = 4 = 2^2: no padding codes, so depth means
        # *exactly* that many gates and depth 2 is unsatisfiable for CNOT.
        engine = BddSynthesisEngine(cnot_spec(), GateLibrary.mct(2),
                                    incremental=False)
        assert engine.decide(2).status == "unsat"
        assert engine.decide(0).status == "unsat"
        assert engine.decide(1).status == "sat"


class TestVariableOrders:
    def test_yx_order_requires_monolithic(self):
        with pytest.raises(ValueError):
            BddSynthesisEngine(cnot_spec(), GateLibrary.mct(2),
                               var_order="yx")

    def test_yx_order_gives_same_answers(self):
        spec = cnot_spec()
        library = GateLibrary.mct(2)
        yx = BddSynthesisEngine(spec, library, incremental=False,
                                var_order="yx")
        xy = BddSynthesisEngine(spec, library, incremental=False,
                                var_order="xy")
        for depth in range(3):
            a = yx.decide(depth)
            b = xy.decide(depth)
            assert a.status == b.status
            if a.status == "sat":
                assert a.num_solutions == b.num_solutions

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            BddSynthesisEngine(cnot_spec(), GateLibrary.mct(2),
                               var_order="zz")


class TestExtraction:
    def test_depth_zero_identity(self):
        identity = Specification.from_permutation((0, 1, 2, 3), name="id")
        engine = BddSynthesisEngine(identity, GateLibrary.mct(2))
        outcome = engine.decide(0)
        assert outcome.status == "sat"
        assert outcome.circuits == [Circuit(2)]
        assert outcome.num_solutions == 1

    def test_enumeration_cap_marks_truncation(self):
        engine = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3),
                                    max_enumerate=3)
        for depth in range(7):
            outcome = engine.decide(depth)
        assert outcome.status == "sat"
        assert outcome.solutions_truncated
        assert len(outcome.circuits) == 3
        assert outcome.num_solutions > 3
        # The QC range covers only the 3-circuit sample, and says so.
        assert outcome.detail["qc_range_sample_only"] is True

    def test_full_enumeration_has_no_sample_flag(self):
        engine = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3))
        for depth in range(7):
            outcome = engine.decide(depth)
        assert outcome.status == "sat"
        assert not outcome.solutions_truncated
        assert "qc_range_sample_only" not in outcome.detail

    def test_sample_flag_reaches_run_record(self):
        from repro.obs.runrecord import build_run_record, validate_run_record
        from repro.synth.driver import synthesize
        result = synthesize(SPEC_317, engine="bdd", max_enumerate=2)
        record = build_run_record(result)
        assert validate_run_record(record) == []
        final = record["per_depth"][-1]
        assert final["detail"]["qc_range_sample_only"] is True

    def test_non_minimal_depth_decodes_shorter_circuits(self):
        # MCT(3) has q = 12 < 16: padding codes exist, so deciding depth 2
        # for a depth-1 function is satisfiable and models using padding
        # decode to circuits with the identity slots dropped.
        perm = tuple(x ^ ((x & 1) << 1) for x in range(8))  # CNOT on 3 lines
        spec = Specification.from_permutation(perm, name="cnot3")
        engine = BddSynthesisEngine(spec, GateLibrary.mct(3),
                                    incremental=False)
        outcome = engine.decide(2)
        assert outcome.status == "sat"
        assert any(len(c) == 1 for c in outcome.circuits)
        for circuit in outcome.circuits:
            assert spec.matches_circuit(circuit)
            assert len(circuit) <= 2

    def test_quantum_cost_range_spans_solutions(self):
        engine = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3))
        outcome = None
        for depth in range(7):
            outcome = engine.decide(depth)
        costs = sorted(c.quantum_cost() for c in outcome.circuits)
        assert outcome.quantum_cost_min == costs[0]
        assert outcome.quantum_cost_max == costs[-1]


class TestGuards:
    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BddSynthesisEngine(cnot_spec(), GateLibrary.mct(3))

    def test_timeout_returns_unknown(self):
        engine = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3))
        outcome = engine.decide(0, time_limit=None)
        assert outcome.status == "unsat"
        fresh = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3))
        outcome = fresh.decide(6, time_limit=0.0)
        assert outcome.status == "unknown"

    def test_alloc_tick_uninstalled_after_decide(self):
        # decide() wires the deadline into the manager's allocation tick;
        # a stale deadline from a finished query must never fire later.
        engine = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3))
        engine.decide(0, time_limit=60.0)
        assert engine.manager._alloc_tick is None
        engine.decide(1, time_limit=0.0)
        assert engine.manager._alloc_tick is None

    def test_deadline_interrupts_inside_apply(self):
        # With the per-gate ticks disabled, only the node-allocation tick
        # can notice an expired deadline inside universal_gate_stage's
        # apply runs — deadline enforcement no longer depends on gate
        # boundaries.
        import repro.synth.bdd_engine as mod

        engine = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3))
        original = mod.universal_gate_stage

        def no_tick_stage(lines, select, library, algebra, tick=None):
            return original(lines, select, library, algebra, tick=None)

        mod.universal_gate_stage = no_tick_stage
        try:
            outcome = engine.decide(6, time_limit=0.0)
        finally:
            mod.universal_gate_stage = original
        assert outcome.status == "unknown"
        assert outcome.detail.get("timeout") is True

    def test_gc_between_depths_keeps_results_valid(self):
        # The incremental engine collects after every depth; the
        # monolithic one builds a fresh manager per depth and never does.
        collected = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3))
        fresh = BddSynthesisEngine(SPEC_317, GateLibrary.mct(3),
                                   incremental=False)
        for depth in range(7):
            a = collected.decide(depth)
            b = fresh.decide(depth)
            assert a.status == b.status
            assert a.detail["eq_size"] == b.detail["eq_size"]
        assert collected.manager.gc_runs == 7
        assert a.num_solutions == b.num_solutions
        assert [str(c) for c in a.circuits] == [str(c) for c in b.circuits]


class TestPinnedAnswers:
    """Per-depth ``eq_size`` and the enumerated circuits, in order.

    The figures were produced by the X-tree ``match_forall`` with
    ``compact()`` between depths; the row fold with ``gc()`` between
    depths must reproduce them exactly (the solution BDD is canonical,
    and enumeration walks it in a fixed order).
    """

    PINNED = {
        "3_17": ([1, 1, 1, 1, 1, 1, 91], [
            "t([];[x0]) t([x0];[x2]) t([x2];[x1]) t([x1,x2];[x0]) "
            "t([x0,x1];[x2]) t([];[x0])",
            "t([x0];[x1]) t([x1,x2];[x0]) t([];[x2]) t([x2];[x1]) "
            "t([x0];[x2]) t([x1,x2];[x0])",
            "t([];[x2]) t([x0];[x2]) t([x2];[x1]) t([x1,x2];[x0]) "
            "t([x1];[x2]) t([x0,x1];[x2])",
            "t([];[x2]) t([x0];[x2]) t([x2];[x1]) t([x1,x2];[x0]) "
            "t([x0,x1];[x2]) t([x1];[x2])",
            "t([x0];[x2]) t([x1,x2];[x0]) t([];[x2]) t([x2];[x1]) "
            "t([x0,x1];[x2]) t([x1];[x0])",
            "t([x0];[x2]) t([];[x2]) t([x2];[x1]) t([x1,x2];[x0]) "
            "t([x1];[x2]) t([x0,x1];[x2])",
            "t([x0];[x2]) t([];[x2]) t([x2];[x1]) t([x1,x2];[x0]) "
            "t([x0,x1];[x2]) t([x1];[x2])",
        ]),
        "mod5d1_s": ([1, 1, 1, 1, 1, 1, 68], [
            "t([x1,x2];[x0]) t([x3];[x2]) t([x0,x2];[x3]) "
            "t([x0,x2,x3];[x1]) t([x0,x1];[x2]) t([x1,x3];[x2])",
            "t([x1,x2];[x0]) t([x3];[x2]) t([x0,x2];[x3]) "
            "t([x0,x2,x3];[x1]) t([x1,x3];[x2]) t([x0,x1];[x2])",
            "t([x1,x2];[x0]) t([x3];[x2]) t([x0,x2];[x3]) "
            "t([x0,x1];[x2]) t([x1,x3];[x2]) t([x0,x2,x3];[x1])",
            "t([x1,x2];[x0]) t([x3];[x2]) t([x0,x2];[x3]) "
            "t([x1,x3];[x2]) t([x0,x1];[x2]) t([x0,x2,x3];[x1])",
            "t([x1,x2];[x0]) t([x0,x1];[x3]) t([x3];[x2]) "
            "t([x0,x2];[x3]) t([x1,x3];[x2]) t([x0,x2,x3];[x1])",
        ]),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_eq_sizes_and_circuits(self, name):
        from repro.functions import get_spec
        from repro.synth import synthesize
        spec = get_spec(name)
        result = synthesize(spec, engine="bdd")
        eq_sizes, circuits = self.PINNED[name]
        assert [d.metrics["bdd.eq_size"] for d in result.per_depth] \
            == eq_sizes
        n = spec.n_lines
        assert [str(c) for c in result.circuits] \
            == [f"Circuit(n={n}: {gates})" for gates in circuits]
