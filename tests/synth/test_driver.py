"""Iterative-deepening driver tests (the Figure-1 loop)."""

import pytest

import repro.synth.bdd_engine as bdd_engine
from repro.bdd.manager import BddManager
from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.synth import synthesize
from repro.synth.driver import default_gate_limit
from repro.synth.output_permutation import synthesize_with_output_permutation
from repro.synth.result import SynthesisResult


def cnot_spec():
    perm = []
    for i in range(4):
        a, b = i & 1, (i >> 1) & 1
        perm.append(a | ((a ^ b) << 1))
    return Specification.from_permutation(perm, name="cnot")


def test_per_depth_history_records_the_iteration(capfd):
    result = synthesize(cnot_spec(), engine="bdd")
    decisions = [(s.depth, s.decision) for s in result.per_depth]
    assert decisions == [(0, "unsat"), (1, "sat")]


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        synthesize(cnot_spec(), engine="mystery")


def test_gate_limit_stops_the_loop():
    # CNOT needs 1 gate; limit 0 makes the loop give up.
    result = synthesize(cnot_spec(), engine="bdd", max_gates=0)
    assert result.status == "gate_limit"
    assert not result.realized
    assert result.circuit is None


def test_time_limit_yields_timeout_status():
    # hwb4 needs more than 5 s of SAT search even with the native solver,
    # so a 10 ms budget always runs out; 3_17 now realizes in 10-20 ms.
    from repro.functions import get_spec
    spec = get_spec("hwb4")
    result = synthesize(spec, engine="sat", time_limit=0.01)
    assert result.status == "timeout"


def test_explicit_library_object_accepted():
    library = GateLibrary.mct(2)
    result = synthesize(cnot_spec(), library=library, engine="bdd")
    assert result.realized and result.depth == 1


def test_kinds_build_the_library():
    swap = Specification.from_permutation((0, 2, 1, 3), name="swap")
    result = synthesize(swap, kinds=("mct", "mcf"), engine="bdd")
    assert result.depth == 1


def test_engine_instance_passthrough():
    from repro.synth.sword_engine import SwordEngine
    spec = cnot_spec()
    engine = SwordEngine(spec, GateLibrary.mct(2))
    result = synthesize(spec, library=GateLibrary.mct(2), engine=engine)
    assert result.engine == "sword"
    assert result.realized and result.depth == 1


def test_engine_instance_conflicting_library_rejected():
    from repro.synth.sword_engine import SwordEngine
    spec = cnot_spec()
    engine = SwordEngine(spec, GateLibrary.mct(2))
    with pytest.raises(ValueError, match="conflicting"):
        synthesize(spec, library=GateLibrary.mct_mcf(2), engine=engine)


def test_engine_instance_conflicting_kinds_rejected():
    from repro.synth.sword_engine import SwordEngine
    spec = cnot_spec()
    engine = SwordEngine(spec, GateLibrary.mct(2))
    with pytest.raises(ValueError, match="conflicting"):
        synthesize(spec, kinds=("mct", "mcf"), engine=engine)


def test_bdd_cache_limit_clears_caches_not_answers(monkeypatch):
    # The deadline check drops the BDD operation caches past
    # CACHE_LIMIT entries.  A tiny limit makes it fire on the engine's
    # path and on the forall path of output-permutation synthesis; the
    # unique table is kept, so every answer stays the same.
    spec = Specification.from_permutation((7, 1, 4, 3, 0, 2, 6, 5),
                                          name="3_17")
    default = synthesize(spec, engine="bdd")
    permuted = synthesize_with_output_permutation(spec)
    clears = []
    clear_caches = BddManager.clear_caches

    def counting_clear(manager):
        clears.append(manager)
        clear_caches(manager)

    monkeypatch.setattr(bdd_engine, "CACHE_LIMIT", 64)
    monkeypatch.setattr(BddManager, "clear_caches", counting_clear)
    small = synthesize(spec, engine="bdd")
    assert small.metrics["bdd.cache_clears"] > 0
    assert default.metrics["bdd.cache_clears"] == 0
    assert (small.depth, small.num_solutions, small.quantum_cost_min,
            small.quantum_cost_max) \
        == (default.depth, default.num_solutions, default.quantum_cost_min,
            default.quantum_cost_max)
    assert [str(c) for c in small.circuits] \
        == [str(c) for c in default.circuits]
    del clears[:]
    permuted_small = synthesize_with_output_permutation(spec)
    assert clears
    assert permuted.realized
    assert (permuted_small.depth, permuted_small.realizations) \
        == (permuted.depth, permuted.realizations)


def test_engine_options_forwarded():
    result = synthesize(cnot_spec(), engine="bdd", max_enumerate=1)
    assert result.realized
    assert len(result.circuits) == 1


def test_default_gate_limit_formula():
    assert default_gate_limit(3) == 24
    assert default_gate_limit(4) == 64


def test_summary_strings():
    realized = synthesize(cnot_spec(), engine="bdd")
    text = realized.summary()
    assert "D=1" in text and "#SOL=" in text
    failed = synthesize(cnot_spec(), engine="bdd", max_gates=0)
    assert "gate_limit" in failed.summary()


def test_result_best_circuit_is_cheapest():
    spec = Specification.from_permutation((7, 1, 4, 3, 0, 2, 6, 5))
    result = synthesize(spec, engine="bdd")
    best = result.circuit
    assert best.quantum_cost() == result.quantum_cost_min


def test_spec_name_propagates():
    result = synthesize(cnot_spec(), engine="bdd")
    assert result.spec_name == "cnot"
    anonymous = Specification.from_permutation((0, 1))
    assert synthesize(anonymous, engine="bdd").spec_name == "anonymous"


# -- engine sessions ----------------------------------------------------------


class TestEngineSessions:
    def test_engine_session_shim_without_protocol(self):
        from repro.synth.driver import engine_session

        class Stateless:
            pass

        class Flagged:
            incremental = True

        with engine_session(Stateless()) as warm:
            assert warm is False
        with engine_session(Flagged()) as warm:
            assert warm is True

    def test_engine_session_calls_protocol_and_closes(self):
        from repro.synth.driver import engine_session

        class Sessioned:
            opened = closed = 0

            def begin_session(self):
                self.opened += 1
                return True

            def end_session(self):
                self.closed += 1

        engine = Sessioned()
        with pytest.raises(RuntimeError):
            with engine_session(engine) as warm:
                assert warm is True
                raise RuntimeError("boom")
        assert engine.opened == 1
        assert engine.closed == 1  # closed even on error

    def test_incremental_engines_registry(self):
        from repro.synth.driver import ENGINES, INCREMENTAL_ENGINES
        assert INCREMENTAL_ENGINES <= set(ENGINES)
        assert "sword" not in INCREMENTAL_ENGINES

    @pytest.mark.parametrize("engine", ["sat", "qbf"])
    def test_result_incremental_flag_tracks_option(self, engine):
        warm = synthesize(cnot_spec(), engine=engine)
        cold = synthesize(cnot_spec(), engine=engine, incremental=False)
        assert warm.incremental is True
        assert cold.incremental is False
        assert warm.realized and cold.realized
        assert warm.depth == cold.depth
        assert [c.to_string() for c in warm.circuits] \
            == [c.to_string() for c in cold.circuits]
        assert [s.decision for s in warm.per_depth] \
            == [s.decision for s in cold.per_depth]

    def test_sword_runs_are_never_incremental(self):
        result = synthesize(cnot_spec(), engine="sword")
        assert result.realized
        assert result.incremental is False

    def test_bdd_runs_report_incremental_mode(self):
        assert synthesize(cnot_spec(), engine="bdd").incremental is True
        cold = synthesize(cnot_spec(), engine="bdd", incremental=False)
        assert cold.incremental is False and cold.realized
