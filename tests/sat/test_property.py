"""Hypothesis property tests for the SAT substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.cdcl import solve_cnf
from repro.sat.cnf import Cnf, evaluate_cnf
from tests.sat.dpll import dpll_solve

N_VARS = 6

literals = st.integers(1, N_VARS).flatmap(
    lambda v: st.sampled_from([v, -v]))
clauses = st.lists(literals, min_size=1, max_size=4)
formulas = st.lists(clauses, min_size=0, max_size=20)


def build(clause_list):
    cnf = Cnf(N_VARS)
    for clause in clause_list:
        cnf.add_clause(clause)
    return cnf


def brute_force(cnf):
    for bits in range(1 << N_VARS):
        model = {v: bool((bits >> (v - 1)) & 1) for v in range(1, N_VARS + 1)}
        if evaluate_cnf(cnf, model):
            return True
    return False


@given(formulas)
@settings(max_examples=150, deadline=None)
def test_cdcl_agrees_with_brute_force(clause_list):
    cnf = build(clause_list)
    expected = brute_force(cnf)
    result = solve_cnf(cnf)
    assert (result.status == "sat") == expected
    if result.is_sat:
        assert evaluate_cnf(cnf, result.model)


@given(formulas)
@settings(max_examples=100, deadline=None)
def test_cdcl_agrees_with_dpll(clause_list):
    cnf = build(clause_list)
    assert (solve_cnf(cnf).status == "sat") == (dpll_solve(cnf) is not None)


@given(formulas)
@settings(max_examples=100, deadline=None)
def test_dpll_models_satisfy(clause_list):
    cnf = build(clause_list)
    model = dpll_solve(cnf)
    if model is not None:
        assert evaluate_cnf(cnf, model)


@given(formulas, formulas)
@settings(max_examples=80, deadline=None)
def test_adding_clauses_preserves_unsat(first, second):
    """Monotonicity: a superset of clauses cannot become satisfiable."""
    base = build(first)
    if solve_cnf(base).is_unsat:
        extended = build(first + second)
        assert solve_cnf(extended).is_unsat
