"""QBF-engine specifics: prefix shape, polynomial size, decisions."""

import pytest

from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.functions.parametric import graycode
from repro.qbf.qcnf import EXISTS, FORALL
from repro.synth.qbf_engine import QbfSolverEngine
from tests.qbf.qdpll import solve_qbf


def cnot_spec():
    perm = []
    for i in range(4):
        a, b = i & 1, (i >> 1) & 1
        perm.append(a | ((a ^ b) << 1))
    return Specification.from_permutation(perm, name="cnot")


class TestEncoding:
    def test_prefix_is_exists_forall_exists(self):
        engine = QbfSolverEngine(cnot_spec(), GateLibrary.mct(2))
        formula, select_vars = engine.encode(depth=2)
        quantifiers = [q for q, _ in formula.prefix]
        assert quantifiers == [EXISTS, FORALL, EXISTS]
        flat = [v for block in select_vars for v in block]
        assert list(formula.prefix[0][1]) == flat
        assert len(formula.prefix[1][1]) == 2  # the X variables

    def test_depth_zero_prefix_has_no_leading_exists(self):
        engine = QbfSolverEngine(cnot_spec(), GateLibrary.mct(2))
        formula, select_vars = engine.encode(depth=0)
        assert select_vars == []
        assert formula.prefix[0][0] == FORALL

    def test_encoding_is_polynomial_in_lines(self):
        """The headline claim: clause count stays flat as 2^n explodes.

        (Clause count grows with the library size q = n*2^(n-1) — that
        is polynomial in the encoding parameters, not with the 2^n rows
        duplicated by the SAT baseline.)
        """
        from repro.synth.sat_engine import SatBaselineEngine
        for n in (3, 4):
            spec = graycode(n)
            qbf_cnf = QbfSolverEngine(spec, GateLibrary.mct(n)).encode(2)[0].cnf
            sat_cnf = SatBaselineEngine(spec, GateLibrary.mct(n)).encode(2)[0]
            # Same depth: the QBF matrix is far smaller than the per-row
            # duplicated SAT instance, increasingly so with n.
            assert len(qbf_cnf.clauses) < len(sat_cnf.clauses)

    def test_export_qdimacs_parses_back(self):
        from repro.sat.dimacs import from_qdimacs
        engine = QbfSolverEngine(cnot_spec(), GateLibrary.mct(2))
        text = engine.export_qdimacs(depth=1)
        prefix, cnf = from_qdimacs(text)
        assert prefix[0][0] == "e"
        assert prefix[1][0] == "a"
        assert len(cnf.clauses) > 0


def decide_by_qdpll(engine, depth):
    """The engine's depth-``d`` encoding decided by the test-only QDPLL;
    returns the status and, when satisfiable, the decoded circuit."""
    formula, select_vars = engine.encode(depth)
    result = solve_qbf(formula)
    if not result.is_sat:
        return result.status, None
    return result.status, engine._decode(result.model, select_vars)


class TestSolvers:
    @pytest.mark.parametrize("solver", ["qdpll", "expansion"])
    def test_both_solvers_agree_on_cnot(self, solver):
        engine = QbfSolverEngine(cnot_spec(), GateLibrary.mct(2))
        if solver == "qdpll":
            assert decide_by_qdpll(engine, 0)[0] == "unsat"
            status, circuit = decide_by_qdpll(engine, 1)
        else:
            assert engine.decide(0).status == "unsat"
            outcome = engine.decide(1)
            status, circuit = outcome.status, outcome.circuits[0]
        assert status == "sat"
        assert cnot_spec().matches_circuit(circuit)

    def test_timeout_reports_unknown(self):
        spec = Specification.from_permutation((7, 1, 4, 3, 0, 2, 6, 5))
        engine = QbfSolverEngine(spec, GateLibrary.mct(3))
        assert engine.decide(5, time_limit=0.0).status == "unknown"

    def test_incompletely_specified_synthesis(self):
        spec = Specification(2, [(0, None), (1, None),
                                 (None, None), (None, None)])
        engine = QbfSolverEngine(spec, GateLibrary.mct(2))
        outcome = engine.decide(0)
        assert outcome.status == "sat"  # identity already matches


class TestIncrementalSession:
    """Row-cofactor sessions must equal the scratch expansion exactly."""

    def spec(self):
        return Specification.from_permutation((7, 1, 4, 3, 0, 2, 6, 5),
                                              name="3_17")

    def test_session_matches_scratch_per_depth(self):
        library = GateLibrary.mct(3)
        cold = QbfSolverEngine(self.spec(), library, incremental=False)
        warm = QbfSolverEngine(self.spec(), library)
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

    def test_session_reuses_clauses(self):
        engine = QbfSolverEngine(self.spec(), GateLibrary.mct(3))
        assert engine.begin_session()
        try:
            first = engine.decide(2)
            second = engine.decide(3)
            assert first.metrics["sat.incremental.clauses_reused"] == 0
            # clauses_added counts add_clause calls; root simplification
            # stores fewer, so only reuse > 0 is guaranteed — and it is
            # the whole depth-2 database.
            assert second.metrics["sat.incremental.clauses_reused"] > 0
            assert second.metrics["sat.incremental.assumptions"] == 1
        finally:
            engine.end_session()
