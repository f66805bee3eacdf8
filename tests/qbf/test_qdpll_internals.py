"""White-box tests of the trail-based QDPLL internals."""

import pytest

from repro.qbf.qcnf import EXISTS, FORALL, QuantifiedCnf
from repro.sat.cnf import Cnf
from tests.qbf.qdpll import QdpllSolver


def build(prefix, n_vars, clauses):
    cnf = Cnf(n_vars)
    for clause in clauses:
        cnf.add_clause(clause)
    return QuantifiedCnf(prefix, cnf)


class TestPreprocessing:
    def test_tautologies_dropped(self):
        formula = build([(EXISTS, [1, 2])], 2, [(1, -1), (2,)])
        solver = QdpllSolver(formula)
        assert len(solver.clauses) == 1

    def test_duplicate_clauses_dropped(self):
        formula = build([(EXISTS, [1, 2])], 2, [(1, 2), (1, 2), (2, 1)])
        solver = QdpllSolver(formula)
        # (1,2) and its literal-permuted twin are distinct tuples; exact
        # duplicates collapse.
        assert len(solver.clauses) == 2

    def test_universal_reduction_at_build_time(self):
        # exists e forall u: clause (e, u) reduces to (e).
        formula = build([(EXISTS, [1]), (FORALL, [2])], 2, [(1, 2)])
        solver = QdpllSolver(formula)
        assert solver.clauses == [(1,)]

    def test_all_universal_clause_is_contradiction(self):
        formula = build([(FORALL, [1, 2])], 2, [(1, 2)])
        solver = QdpllSolver(formula)
        assert solver._contradiction
        assert solver.solve().is_unsat


class TestAssignUndo:
    def test_counters_restored_after_unassign(self):
        formula = build([(EXISTS, [1, 2, 3])], 3, [(1, 2), (-1, 3), (2, 3)])
        solver = QdpllSolver(formula)
        before = (list(solver.n_sat), list(solver.n_unassigned),
                  list(solver.n_unassigned_e), solver.unsatisfied)
        mark = len(solver.trail)
        assert solver._assign(1)
        assert solver._assign(-2)
        solver._unassign_to(mark)
        after = (list(solver.n_sat), list(solver.n_unassigned),
                 list(solver.n_unassigned_e), solver.unsatisfied)
        assert before == after

    def test_conflict_detected_on_assign(self):
        formula = build([(EXISTS, [1])], 1, [(1,)])
        solver = QdpllSolver(formula)
        assert solver._assign(-1) is False


class TestStatistics:
    def test_propagations_counted(self):
        # Unit chain forces propagation.
        formula = build([(EXISTS, [1, 2, 3])], 3,
                        [(1,), (-1, 2), (-2, 3)])
        solver = QdpllSolver(formula)
        result = solver.solve()
        assert result.is_sat
        assert result.propagations >= 3
        assert result.model == {1: True, 2: True, 3: True}

    def test_decisions_counted_on_branching(self):
        formula = build([(EXISTS, [1, 2])], 2, [(1, 2)])
        solver = QdpllSolver(formula)
        result = solver.solve()
        assert result.is_sat
        assert result.decisions >= 1


class TestIrrelevantVariables:
    def test_universal_var_outside_clauses_not_branched(self):
        # u never occurs: no AND-branching blow-up, still satisfiable.
        formula = build([(EXISTS, [1]), (FORALL, [2]), (EXISTS, [3])], 3,
                        [(1, 3)])
        solver = QdpllSolver(formula)
        result = solver.solve()
        assert result.is_sat
        # Only existential decisions should have happened.
        assert result.decisions <= 2
