"""Incremental CDCL interface: assumptions, cores, clause reuse, lexmin.

These are the regression tests for the assumption-based solving layer
that the SAT/QBF engine sessions are built on: per-call ``SatResult``
objects (no shared-stats aliasing), final-conflict cores, clause
addition between calls, retained learnt clauses, and the canonical
lex-minimal model extraction of :func:`repro.sat.lexmin_model`.
"""

import time

import pytest

from repro.sat import lexmin_model
from repro.sat.cdcl import CdclSolver, solve_cnf
from repro.sat.cnf import Cnf, evaluate_cnf


def chain_cnf(n):
    """x1 -> x2 -> ... -> xn as CNF implications."""
    cnf = Cnf(n)
    for v in range(1, n):
        cnf.add_clause([-v, v + 1])
    return cnf


class TestRepeatedSolve:
    def test_consecutive_solves_return_independent_stats(self):
        # Regression: solve() used to mutate a single SatResult held in
        # self.stats, so a second call corrupted the first call's
        # counters and model.  Each call must return a fresh object.
        cnf = Cnf(3)
        cnf.add_clause([1, 2])
        cnf.add_clause([-1, 3])
        solver = CdclSolver(cnf)
        first = solver.solve()
        second = solver.solve()
        assert first is not second
        assert first.is_sat and second.is_sat
        assert evaluate_cnf(cnf, first.model)
        assert evaluate_cnf(cnf, second.model)
        # The first result's counters must not have grown during the
        # second call.
        assert first.propagations <= second.propagations + first.propagations
        third = solver.solve(assumptions=[-3])
        assert third.is_sat
        assert first.model is not third.model
        assert evaluate_cnf(cnf, third.model) and third.model[3] is False

    def test_solver_reusable_after_unsat_assumptions(self):
        cnf = chain_cnf(4)
        solver = CdclSolver(cnf)
        blocked = solver.solve(assumptions=[1, -4])
        assert blocked.status == "unsat"
        # The refutation was assumption-relative: the formula is still
        # satisfiable and the solver must say so afterwards.
        free = solver.solve()
        assert free.is_sat
        assert evaluate_cnf(cnf, free.model)

    def test_contradictory_assumptions_give_core(self):
        solver = CdclSolver(Cnf(2))
        result = solver.solve(assumptions=[1, -1])
        assert result.status == "unsat"
        assert set(result.core) <= {1, -1}
        assert len(result.core) >= 1

    def test_final_conflict_core_through_chain(self):
        solver = CdclSolver(chain_cnf(3))
        result = solver.solve(assumptions=[1, -3])
        assert result.status == "unsat"
        # Both assumptions participate in the refutation.
        assert set(result.core) == {1, -3}

    def test_irrelevant_assumption_stays_out_of_core(self):
        cnf = Cnf(5)
        for v in (1, 2):
            cnf.add_clause([-v, v + 1])   # x1 -> x2 -> x3
        cnf.add_clause([4, 5])            # unrelated satellite vars
        solver = CdclSolver(cnf)
        result = solver.solve(assumptions=[4, 1, -3])
        assert result.status == "unsat"
        assert 4 not in set(result.core)

    def test_zero_assumption_rejected(self):
        solver = CdclSolver(Cnf(1))
        with pytest.raises(ValueError):
            solver.solve(assumptions=[0])


class TestAddClauseBetweenCalls:
    def test_monotone_strengthening(self):
        solver = CdclSolver(Cnf(2))
        assert solver.solve(assumptions=[1, 2]).is_sat
        assert solver.add_clause([-1, -2])
        assert solver.solve(assumptions=[1, 2]).status == "unsat"
        assert solver.solve(assumptions=[1]).is_sat
        assert solver.add_clause([-1])
        assert solver.solve(assumptions=[1]).status == "unsat"
        assert solver.solve().is_sat

    def test_empty_clause_makes_everything_unsat(self):
        solver = CdclSolver(Cnf(1))
        assert not solver.add_clause([])
        result = solver.solve()
        assert result.status == "unsat"
        assert result.core == []

    def test_new_vars_between_calls(self):
        solver = CdclSolver()
        a = solver.new_var()
        assert solver.solve(assumptions=[a]).is_sat
        b = solver.new_var()
        solver.add_clause([-a, b])
        result = solver.solve(assumptions=[a, -b])
        assert result.status == "unsat"

    def test_learnt_clauses_survive_between_calls(self):
        # A solved instance that forced conflicts leaves learnt clauses
        # behind; a later call starts with them (that is the point of
        # the warm engine sessions).
        cnf = Cnf(6)
        for a in (1, -1):
            for b in (2, -2):
                cnf.add_clause([a, b, 3])
        cnf.add_clause([-3, 4])
        cnf.add_clause([-3, -4, 5])
        solver = CdclSolver(cnf)
        first = solver.solve(assumptions=[-3])
        learnts_after_first = solver.num_learnts
        second = solver.solve(assumptions=[-3])
        assert first.status == second.status
        assert solver.num_learnts >= learnts_after_first


class TestLexminModel:
    def test_minimum_is_model_set_property(self):
        # x1 or x2: minimum under MSB-first order [2, 1] is x2=0,x1=1.
        cnf = Cnf(2)
        cnf.add_clause([1, 2])
        solver = CdclSolver(cnf)
        witness = solver.solve()
        model, stats = lexmin_model(solver, [2, 1], witness.model)
        assert (model[2], model[1]) == (False, True)
        assert stats["solves"] >= 0

    def test_lexmin_respects_assumptions(self):
        cnf = Cnf(2)
        cnf.add_clause([1, 2])
        solver = CdclSolver(cnf)
        witness = solver.solve(assumptions=[-1])
        model, _ = lexmin_model(solver, [2, 1], witness.model,
                                assumptions=[-1])
        assert (model[2], model[1]) == (True, False)

    def test_lexmin_is_witness_independent(self):
        # Whatever model the solver happened to find, the canonical
        # minimum is the same — this is what makes warm and cold
        # synthesis paths return identical circuits.
        cnf = Cnf(3)
        cnf.add_clause([1, 2, 3])
        order = [3, 2, 1]
        expected = None
        for forced in ([1], [2], [3], [1, 2], [2, 3]):
            solver = CdclSolver(cnf)
            witness = solver.solve(assumptions=forced)
            assert witness.is_sat
            model, _ = lexmin_model(solver, order, witness.model)
            key = tuple(model[v] for v in order)
            if expected is None:
                expected = key
            assert key == expected == (False, False, True)


    def test_descent_reports_whether_it_finished(self):
        cnf = Cnf(2)
        cnf.add_clause([1, 2])
        solver = CdclSolver(cnf)
        witness = solver.solve(assumptions=[2])
        assert witness.model[2]
        model, stats = lexmin_model(solver, [2, 1], witness.model)
        assert stats["complete"] == 1 and not model[2]
        # A deadline already past keeps the witness's 1-bit.
        model, stats = lexmin_model(solver, [2, 1], witness.model,
                                    deadline=time.perf_counter() - 1.0)
        assert stats["complete"] == 0 and model[2]
        assert stats["solves"] == 0


class TestSolveCnfCompat:
    def test_solve_cnf_assumptions_passthrough(self):
        cnf = Cnf(2)
        cnf.add_clause([1, 2])
        assert solve_cnf(cnf, assumptions=[-1]).is_sat
        assert solve_cnf(cnf, assumptions=[-1, -2]).status == "unsat"
