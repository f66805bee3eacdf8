"""The store through synthesize(): hits, resumes, parallel sharing."""

import json

import pytest

import repro.obs as obs
from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.functions import get_spec
from repro.store import SynthesisStore, derive_store_key
from repro.synth.bdd_engine import DepthOutcome
from repro.synth.driver import ENGINES, synthesize


def _spec(name="ex"):
    return Specification.from_permutation([7, 1, 4, 3, 0, 2, 6, 5], name=name)


def _canonical_bytes(record):
    return json.dumps(obs.canonical_record(record), sort_keys=True)


@pytest.fixture
def stub_engine():
    """A SAT engine that reports ``unknown`` from depth 3 on.

    Deterministic stand-in for a timeout: the first run banks UNSAT
    depths 0..2 into the ledger and stops, without depending on
    wall-clock budgets.
    """
    class StubEngine(ENGINES["sat"]):
        def decide(self, depth, time_limit=None):
            if depth >= 3:
                return DepthOutcome(status="unknown", detail={}, metrics={})
            return super().decide(depth, time_limit)

    ENGINES["stub"] = StubEngine
    yield "stub"
    del ENGINES["stub"]


@pytest.mark.parametrize("engine", ["bdd", "sat"])
def test_second_run_is_a_hit_with_identical_answer(tmp_path, engine):
    root = str(tmp_path / "store")
    cold = synthesize(_spec(), engine=engine, store=root)
    warm = synthesize(_spec(), engine=engine, store=root)
    assert not cold.store_hit and warm.store_hit
    assert warm.status == cold.status == "realized"
    assert warm.depth == cold.depth
    assert warm.num_solutions == cold.num_solutions
    assert warm.quantum_cost_min == cold.quantum_cost_min
    assert warm.quantum_cost_max == cold.quantum_cost_max
    assert [c.gates for c in warm.circuits] == [c.gates for c in cold.circuits]
    assert [s.decision for s in warm.per_depth] \
        == [s.decision for s in cold.per_depth]


def test_hit_record_is_byte_identical_to_cold_record(tmp_path):
    root = str(tmp_path / "store")
    t_cold = str(tmp_path / "cold.jsonl")
    t_warm = str(tmp_path / "warm.jsonl")
    synthesize(_spec(), engine="sat", store=root, trace=t_cold)
    synthesize(_spec(), engine="sat", store=root, trace=t_warm)
    (cold_rec,), _ = obs.read_trace(t_cold)
    (warm_rec,), _ = obs.read_trace(t_warm)
    assert warm_rec["store_hit"] is True
    assert "store_hit" not in cold_rec
    assert obs.validate_run_record(warm_rec) == []
    assert _canonical_bytes(warm_rec) == _canonical_bytes(cold_rec)


def test_bdd_memory_options_hit_the_default_runs_entry(tmp_path):
    """``reorder`` changes node counts, never answers: a run with it
    reuses the entry a default run committed."""
    root = str(tmp_path / "store")
    t_cold = str(tmp_path / "cold.jsonl")
    t_warm = str(tmp_path / "warm.jsonl")
    spec = get_spec("3_17")
    synthesize(spec, engine="bdd", store=root, trace=t_cold)
    warm = synthesize(spec, engine="bdd", store=root, trace=t_warm,
                      reorder=512)
    assert warm.store_hit
    (cold_rec,), _ = obs.read_trace(t_cold)
    (warm_rec,), _ = obs.read_trace(t_warm)
    assert _canonical_bytes(warm_rec) == _canonical_bytes(cold_rec)


def test_cold_record_is_identical_with_and_without_store(tmp_path):
    """Attaching a store must not leak into the canonical record."""
    t_bare = str(tmp_path / "bare.jsonl")
    t_store = str(tmp_path / "stored.jsonl")
    synthesize(_spec(), engine="bdd", trace=t_bare)
    synthesize(_spec(), engine="bdd", store=str(tmp_path / "s"), trace=t_store)
    (bare,), _ = obs.read_trace(t_bare)
    (stored,), _ = obs.read_trace(t_store)
    assert _canonical_bytes(bare) == _canonical_bytes(stored)


def test_hit_takes_the_requesting_specs_name(tmp_path):
    root = str(tmp_path / "store")
    synthesize(_spec("first-label"), engine="bdd", store=root)
    warm = synthesize(_spec("second-label"), engine="bdd", store=root)
    assert warm.store_hit
    assert warm.spec_name == "second-label"


def test_interrupted_run_banks_bound_and_next_run_resumes(tmp_path,
                                                          stub_engine):
    root = str(tmp_path / "store")
    first = synthesize(_spec(), engine=stub_engine, store=root)
    assert first.status == "timeout"
    assert [s.decision for s in first.per_depth] \
        == ["unsat", "unsat", "unsat", "unknown"]
    key = derive_store_key(_spec(), GateLibrary.from_kinds(3, ("mct",)),
                           stub_engine).bounds_key
    assert SynthesisStore(root).proven_bound(key) == 2
    second = synthesize(_spec(), engine=stub_engine, store=root)
    assert second.store_resumed_from == 2
    assert second.per_depth[0].depth == 3  # depths 0..2 never re-proven


def test_resumed_run_finds_the_identical_circuits(tmp_path, stub_engine):
    # Interrupt with the stub, then finish with the real engine under
    # the *real* engine's key: resume must not change the answer.
    root = str(tmp_path / "store")
    baseline = synthesize(_spec(), engine="sat")
    store = SynthesisStore(root)
    key = derive_store_key(_spec(), GateLibrary.from_kinds(3, ("mct",)),
                           "sat").bounds_key
    store.bank_bound(key, 2)  # as a timed-out run would have
    resumed = synthesize(_spec(), engine="sat", store=root)
    assert resumed.store_resumed_from == 2
    assert resumed.depth == baseline.depth
    assert [c.gates for c in resumed.circuits] \
        == [c.gates for c in baseline.circuits]


def test_store_rejects_engine_instances(tmp_path):
    lib = GateLibrary.from_kinds(3, ("mct",))
    instance = ENGINES["bdd"](_spec(), lib)
    with pytest.raises(ValueError, match="engine"):
        synthesize(_spec(), library=lib, engine=instance,
                   store=str(tmp_path / "s"))


def test_gate_limit_answers_are_cached_too(tmp_path):
    root = str(tmp_path / "store")
    cold = synthesize(_spec(), engine="bdd", max_gates=2, store=root)
    warm = synthesize(_spec(), engine="bdd", max_gates=2, store=root)
    assert cold.status == warm.status == "gate_limit"
    assert warm.store_hit
    store = SynthesisStore(root)
    key = derive_store_key(_spec(), GateLibrary.from_kinds(3, ("mct",)),
                           "bdd", max_gates=2).bounds_key
    assert store.proven_bound(key) == 2


def test_store_metrics_reach_the_process_registry(tmp_path):
    registry = obs.default_registry()
    registry.reset()
    root = str(tmp_path / "store")
    synthesize(_spec(), engine="bdd", store=root)
    synthesize(_spec(), engine="bdd", store=root)
    snapshot = registry.snapshot()
    assert snapshot["store.misses"] == 1
    assert snapshot["store.hits"] == 1
    assert snapshot["store.commits"] == 1


def test_speculative_pipeline_uses_the_store(tmp_path):
    root = str(tmp_path / "store")
    cold = synthesize(_spec(), engine="sat", workers=2, store=root)
    assert not cold.store_hit
    warm = synthesize(_spec(), engine="sat", workers=2, store=root)
    assert warm.store_hit
    assert warm.depth == cold.depth
    # The serial run shares the same key: hits across execution modes.
    serial = synthesize(_spec(), engine="sat", store=root)
    assert serial.store_hit


def _variant(w, name="variant"):
    return Specification.from_permutation(
        w.apply_to_table(_spec().permutation()), name=name)


def test_relabeled_variant_hits_via_orbit(tmp_path):
    from repro.core.transform import LineTransform, OrbitTransform
    from repro.verify import circuit_realizes

    registry = obs.default_registry()
    registry.reset()
    root = str(tmp_path / "store")
    cold = synthesize(_spec(), engine="bdd", store=root)
    relabeled = _variant(OrbitTransform(LineTransform(3, (2, 0, 1))))
    warm = synthesize(relabeled, engine="bdd", store=root)
    assert warm.store_hit
    assert warm.depth == cold.depth
    assert warm.num_solutions == cold.num_solutions
    # Replayed circuits realize the *caller's* spec, not the stored one.
    assert all(circuit_realizes(c, relabeled) for c in warm.circuits)
    snapshot = registry.snapshot()
    assert snapshot["store.hits"] == 1
    assert snapshot["store.orbit_hits"] == 1


def test_inverse_variant_hits_via_orbit(tmp_path):
    from repro.core.transform import LineTransform, OrbitTransform
    from repro.verify import circuit_realizes

    root = str(tmp_path / "store")
    cold = synthesize(_spec(), engine="bdd", store=root)
    inverse = _variant(OrbitTransform(LineTransform.identity(3), invert=True))
    warm = synthesize(inverse, engine="bdd", store=root)
    assert warm.store_hit
    assert warm.depth == cold.depth
    assert all(circuit_realizes(c, inverse) for c in warm.circuits)


def test_negated_variant_hits_only_under_negation_closed_library(tmp_path):
    from repro.core.transform import LineTransform, OrbitTransform
    from repro.verify import circuit_realizes

    w = OrbitTransform(LineTransform(3, (0, 1, 2), mask=0b011))
    negated = _variant(w)

    # mct is not closed under line negation: the orbit subgroup excludes
    # it, so the negated variant is a genuine miss.
    mct_root = str(tmp_path / "mct")
    synthesize(_spec(), engine="bdd", store=mct_root)
    assert not synthesize(negated, engine="bdd", store=mct_root).store_hit

    # mpmct has negative controls: the same variant replays from cache.
    mpmct_root = str(tmp_path / "mpmct")
    library = GateLibrary.from_kinds(3, ("mpmct",))
    synthesize(_spec(), library=library, engine="bdd", store=mpmct_root)
    warm = synthesize(negated, library=GateLibrary.from_kinds(3, ("mpmct",)),
                      engine="bdd", store=mpmct_root)
    assert warm.store_hit
    assert all(circuit_realizes(c, negated) for c in warm.circuits)


def test_no_orbit_flag_isolates_the_key_spaces(tmp_path):
    root = str(tmp_path / "store")
    synthesize(_spec(), engine="bdd", store=root)           # canonical key
    literal = synthesize(_spec(), engine="bdd", store=root, orbit=False)
    assert not literal.store_hit                            # different key
    again = synthesize(_spec(), engine="bdd", store=root, orbit=False)
    assert again.store_hit                                  # literal warm


def test_cold_record_identical_with_orbit_on_and_off(tmp_path):
    """Canonicalizing the *address* must not change the *answer*."""
    t_on = str(tmp_path / "on.jsonl")
    t_off = str(tmp_path / "off.jsonl")
    synthesize(_spec(), engine="bdd", store=str(tmp_path / "a"), trace=t_on)
    synthesize(_spec(), engine="bdd", store=str(tmp_path / "b"), trace=t_off,
               orbit=False)
    (on,), _ = obs.read_trace(t_on)
    (off,), _ = obs.read_trace(t_off)
    assert _canonical_bytes(on) == _canonical_bytes(off)


def test_orbit_hit_event_is_emitted(tmp_path):
    from repro.core.transform import LineTransform, OrbitTransform

    obs.reset_event_bus()
    try:
        root = str(tmp_path / "store")
        synthesize(_spec(), engine="bdd", store=root)
        stream = obs.event_stream()
        synthesize(_variant(OrbitTransform(LineTransform(3, (1, 2, 0)))),
                   engine="bdd", store=root)
        events = stream.drain()
        stream.close()
        orbit_hits = [e for e in events if e["event"] == "orbit_hit"]
        assert len(orbit_hits) == 1
        assert orbit_hits[0]["mode"] == "exact"
        assert [e for e in events if e["event"] == "store_hit"]
    finally:
        obs.reset_event_bus()


def test_bucket_mode_orbit_hit_at_five_lines(tmp_path):
    from repro.core.circuit import Circuit
    from repro.core.gates import Toffoli
    from repro.core.transform import LineTransform, OrbitTransform
    from repro.verify import circuit_realizes

    registry = obs.default_registry()
    registry.reset()
    table = Circuit(5, [Toffoli((0,), 1), Toffoli((2, 3), 4)]).permutation()
    spec = Specification.from_permutation(table, name="bucket-base")
    root = str(tmp_path / "store")
    cold = synthesize(spec, engine="sat", store=root)
    w = OrbitTransform(LineTransform(5, (4, 3, 2, 1, 0)))
    variant = Specification.from_permutation(w.apply_to_table(table),
                                             name="bucket-variant")
    warm = synthesize(variant, engine="sat", store=root)
    assert warm.store_hit
    assert warm.depth == cold.depth
    assert all(circuit_realizes(c, variant) for c in warm.circuits)
    assert registry.snapshot()["store.orbit_hits"] == 1


def test_suite_second_run_is_all_hits(tmp_path):
    from repro.parallel import SynthesisTask, run_suite

    root = str(tmp_path / "store")
    tasks = [SynthesisTask(spec=get_spec(name), engine="bdd", time_limit=60)
             for name in ("3_17", "decod24-v0")]
    first = run_suite(tasks, workers=2, store=root)
    assert all(r.ok and not r.result.store_hit for r in first.reports)
    second = run_suite(tasks, workers=2, store=root)
    assert all(r.ok and r.result.store_hit for r in second.reports)
    for a, b in zip(first.reports, second.reports):
        assert obs.canonical_record(a.record) == obs.canonical_record(b.record)
        assert b.record["store_hit"] is True
