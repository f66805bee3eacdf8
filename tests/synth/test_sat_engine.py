"""SAT-baseline engine specifics: encoding size growth and decisions."""

import pytest

from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.functions.parametric import graycode
from repro.synth.sat_engine import SatBaselineEngine


def cnot_spec():
    perm = []
    for i in range(4):
        a, b = i & 1, (i >> 1) & 1
        perm.append(a | ((a ^ b) << 1))
    return Specification.from_permutation(perm, name="cnot")


class TestEncoding:
    def test_select_variables_allocated_first(self):
        engine = SatBaselineEngine(cnot_spec(), GateLibrary.mct(2))
        cnf, select_vars = engine.encode(depth=3)
        width = GateLibrary.mct(2).select_bits()
        flat = [v for block in select_vars for v in block]
        assert flat == list(range(1, 3 * width + 1))
        assert cnf.num_vars > len(flat)  # Tseitin auxiliaries follow

    def test_encoding_grows_exponentially_with_lines(self):
        """The per-row duplication of [9]: clause count ~ 2^n."""
        sizes = []
        for n in (2, 3, 4):
            spec = graycode(n)
            engine = SatBaselineEngine(spec, GateLibrary.mct(n))
            cnf, _ = engine.encode(depth=2)
            sizes.append(len(cnf.clauses))
        assert sizes[1] > 1.8 * sizes[0]
        assert sizes[2] > 1.8 * sizes[1]

    def test_dont_care_rows_are_skipped(self):
        complete = cnot_spec()
        partial = Specification(2, [complete.rows[0], complete.rows[1],
                                    (None, None), (None, None)])
        library = GateLibrary.mct(2)
        full_cnf, _ = SatBaselineEngine(complete, library).encode(2)
        partial_cnf, _ = SatBaselineEngine(partial, library).encode(2)
        assert len(partial_cnf.clauses) < len(full_cnf.clauses)


class TestDecisions:
    def test_unsat_below_minimal_depth(self):
        engine = SatBaselineEngine(cnot_spec(), GateLibrary.mct(2))
        assert engine.decide(0).status == "unsat"
        outcome = engine.decide(1)
        assert outcome.status == "sat"
        assert len(outcome.circuits) == 1
        assert outcome.quantum_cost_min == outcome.quantum_cost_max

    def test_timeout_reports_unknown(self):
        spec = Specification.from_permutation((7, 1, 4, 3, 0, 2, 6, 5))
        engine = SatBaselineEngine(spec, GateLibrary.mct(3))
        assert engine.decide(6, time_limit=0.0).status == "unknown"

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SatBaselineEngine(cnot_spec(), GateLibrary.mct(3))

    def test_detail_reports_instance_size(self):
        engine = SatBaselineEngine(cnot_spec(), GateLibrary.mct(2))
        outcome = engine.decide(1)
        assert outcome.detail["vars"] > 0
        assert outcome.detail["clauses"] > 0
        assert outcome.metrics["sat.conflicts"] >= 0
        assert outcome.metrics["sat.propagations"] > 0


class TestIncrementalSession:
    """Warm-session decisions must equal scratch decisions exactly."""

    def spec(self):
        return Specification.from_permutation((7, 1, 4, 3, 0, 2, 6, 5),
                                              name="3_17")

    def test_session_matches_scratch_per_depth(self):
        library = GateLibrary.mct(3)
        cold = SatBaselineEngine(self.spec(), library, incremental=False)
        warm = SatBaselineEngine(self.spec(), library)
        assert not cold.begin_session()
        assert warm.begin_session()
        try:
            for depth in range(7):
                a = cold.decide(depth)
                b = warm.decide(depth)
                assert a.status == b.status, f"depth {depth}"
                assert a.detail["incremental"] is False
                assert b.detail["incremental"] is True
                if a.status == "sat":
                    assert [c.to_string() for c in a.circuits] \
                        == [c.to_string() for c in b.circuits]
        finally:
            cold.end_session()
            warm.end_session()

    def test_session_reuses_clauses_and_learnts(self):
        engine = SatBaselineEngine(self.spec(), GateLibrary.mct(3))
        assert engine.begin_session()
        try:
            first = engine.decide(2)
            second = engine.decide(3)
            assert first.metrics["sat.incremental.clauses_reused"] == 0
            # Depth 3 starts from depth 2's full clause database.
            assert second.metrics["sat.incremental.clauses_reused"] \
                >= first.metrics["sat.incremental.clauses_added"]
            assert second.metrics["sat.incremental.assumptions"] == 1
        finally:
            engine.end_session()

    def test_session_tolerates_depth_gaps(self):
        # Speculative workers see gapped strictly-increasing windows.
        library = GateLibrary.mct(3)
        warm = SatBaselineEngine(self.spec(), library)
        cold = SatBaselineEngine(self.spec(), library, incremental=False)
        warm.begin_session()
        try:
            for depth in (1, 4, 6):
                a = warm.decide(depth)
                b = cold.decide(depth)
                assert a.status == b.status
                if a.status == "sat":
                    assert [c.to_string() for c in a.circuits] \
                        == [c.to_string() for c in b.circuits]
        finally:
            warm.end_session()

    def test_decide_outside_session_is_scratch(self):
        engine = SatBaselineEngine(cnot_spec(), GateLibrary.mct(2))
        outcome = engine.decide(1)
        assert outcome.detail["incremental"] is False
        assert outcome.status == "sat"
