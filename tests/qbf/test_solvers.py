"""QDPLL and expansion-solver tests against crafted instances."""

import pytest

from tests.qbf.bruteforce import brute_force_qbf
from repro.qbf.expansion import (
    ExpansionBudgetExceeded,
    expand_to_cnf,
    solve_qbf_by_expansion,
)
from repro.qbf.qcnf import EXISTS, FORALL, QuantifiedCnf
from repro.qbf.qdpll import solve_qbf
from repro.sat.cnf import Cnf

SOLVERS = [solve_qbf, solve_qbf_by_expansion]


def qbf(prefix, n_vars, clauses):
    cnf = Cnf(n_vars)
    for clause in clauses:
        cnf.add_clause(clause)
    return QuantifiedCnf(prefix, cnf)


class TestCraftedTrue:
    @pytest.mark.parametrize("solve", SOLVERS)
    def test_exists_copies_universal(self, solve):
        # forall x exists y (x <-> y): true.
        formula = qbf([(FORALL, [1]), (EXISTS, [2])], 2,
                      [(1, -2), (-1, 2)])
        assert solve(formula).is_sat

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_outer_exists_witness(self, solve):
        # exists y forall x (y or x) and (y or not x): y must be 1.
        formula = qbf([(EXISTS, [1]), (FORALL, [2])], 2,
                      [(1, 2), (1, -2)])
        result = solve(formula)
        assert result.is_sat
        assert result.model == {1: True}

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_empty_matrix_is_true(self, solve):
        formula = qbf([(FORALL, [1])], 1, [])
        assert solve(formula).is_sat

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_tautological_clauses_dropped(self, solve):
        formula = qbf([(FORALL, [1])], 1, [(1, -1)])
        assert solve(formula).is_sat


class TestCraftedFalse:
    @pytest.mark.parametrize("solve", SOLVERS)
    def test_universal_cannot_be_forced(self, solve):
        # forall x (x): false.
        formula = qbf([(FORALL, [1])], 1, [(1,)])
        assert solve(formula).is_unsat

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_exists_before_forall_is_false(self, solve):
        # exists y forall x (x <-> y): false (y fixed before x varies).
        formula = qbf([(EXISTS, [1]), (FORALL, [2])], 2,
                      [(1, -2), (-1, 2)])
        assert solve(formula).is_unsat

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_plain_unsat_matrix(self, solve):
        formula = qbf([(EXISTS, [1, 2])], 2, [(1,), (-1,)])
        assert solve(formula).is_unsat


class TestUniversalReduction:
    @pytest.mark.parametrize("solve", SOLVERS)
    def test_clause_of_only_universals_is_false(self, solve):
        formula = qbf([(EXISTS, [1]), (FORALL, [2, 3])], 3, [(2, 3)])
        assert solve(formula).is_unsat

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_deep_universal_reduced_away(self, solve):
        # exists e forall u (e or u): u is deeper than e, reduces to (e).
        formula = qbf([(EXISTS, [1]), (FORALL, [2])], 2, [(1, 2)])
        result = solve(formula)
        assert result.is_sat
        assert result.model == {1: True}


class TestExpansion:
    def test_expand_to_cnf_preserves_truth(self):
        formula = qbf([(FORALL, [1]), (EXISTS, [2])], 2, [(1, -2), (-1, 2)])
        cnf, outer = expand_to_cnf(formula)
        # Two copies of the inner variable => 3 variables total.
        assert cnf.num_vars == 3
        assert outer == []
        from repro.sat.cdcl import solve_cnf
        assert solve_cnf(cnf).is_sat

    def test_budget_exceeded_raises(self):
        clauses = [(1, 2, 3), (-1, -2, 3), (1, -3)]
        formula = qbf([(FORALL, [1, 2]), (EXISTS, [3])], 3, clauses)
        with pytest.raises(ExpansionBudgetExceeded):
            expand_to_cnf(formula, max_clauses=2)

    def test_budget_exceeded_yields_unknown(self):
        clauses = [(1, 2, 3), (-1, -2, 3), (1, -3)]
        formula = qbf([(FORALL, [1, 2]), (EXISTS, [3])], 3, clauses)
        result = solve_qbf_by_expansion(formula, max_clauses=2)
        assert result.status == "unknown"

    def test_blowup_is_exponential_in_universals(self):
        """The documented 2^k growth that motivates the BDD engine."""
        sizes = []
        for k in (2, 3, 4):
            n = k + 1
            clauses = [tuple(range(1, n + 1))]
            formula = qbf([(FORALL, list(range(1, k + 1))), (EXISTS, [n])],
                          n, clauses)
            cnf, _ = expand_to_cnf(formula)
            sizes.append(cnf.num_vars)
        assert sizes[1] - 1 >= 2 * (sizes[0] - 1) - 1
        assert sizes[2] > sizes[1] > sizes[0]


class TestTimeout:
    def test_qdpll_time_limit(self):
        # A moderately hard random-ish instance with tiny limit.
        clauses = []
        n = 16
        import random
        rng = random.Random(4)
        for _ in range(60):
            clauses.append(tuple(rng.choice([1, -1]) * v
                                 for v in rng.sample(range(1, n + 1), 3)))
        formula = qbf([(EXISTS, list(range(1, 9))),
                       (FORALL, list(range(9, 13))),
                       (EXISTS, list(range(13, n + 1)))], n, clauses)
        result = solve_qbf(formula, time_limit=0.0)
        assert result.status == "unknown"
