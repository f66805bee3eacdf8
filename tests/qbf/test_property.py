"""Hypothesis property tests: both QBF solvers against the brute-force oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.qbf.bruteforce import brute_force_qbf
from repro.qbf.expansion import solve_qbf_by_expansion
from repro.qbf.qcnf import QuantifiedCnf
from repro.qbf.qdpll import solve_qbf
from repro.sat.cnf import Cnf

N_VARS = 5

literals = st.integers(1, N_VARS).flatmap(lambda v: st.sampled_from([v, -v]))
clause_lists = st.lists(st.lists(literals, min_size=1, max_size=3),
                        min_size=0, max_size=10)


@st.composite
def prefixes(draw):
    order = draw(st.permutations(list(range(1, N_VARS + 1))))
    blocks = []
    remaining = list(order)
    while remaining:
        size = draw(st.integers(1, len(remaining)))
        quantifier = draw(st.sampled_from(["e", "a"]))
        blocks.append((quantifier, remaining[:size]))
        remaining = remaining[size:]
    return blocks


def build(prefix, clause_list):
    cnf = Cnf(N_VARS)
    for clause in clause_list:
        cnf.add_clause(clause)
    return QuantifiedCnf(prefix, cnf)


def check_witness(formula, model):
    """Pinning the outer block to the witness must keep the QBF true."""
    outer = formula.outer_existential_block()
    if not outer:
        return
    pinned = Cnf(formula.cnf.num_vars)
    for clause in formula.cnf.clauses:
        pinned.add_clause(clause)
    for var in outer:
        pinned.add_unit(var if model[var] else -var)
    truth, _ = brute_force_qbf(QuantifiedCnf(list(formula.prefix), pinned))
    assert truth


@given(prefixes(), clause_lists)
@settings(max_examples=120, deadline=None)
def test_qdpll_matches_oracle(prefix, clause_list):
    formula = build(prefix, clause_list)
    expected, _ = brute_force_qbf(formula)
    result = solve_qbf(formula)
    assert result.is_sat == expected
    if result.is_sat:
        check_witness(formula, result.model)


@given(prefixes(), clause_lists)
@settings(max_examples=120, deadline=None)
def test_expansion_matches_oracle(prefix, clause_list):
    formula = build(prefix, clause_list)
    expected, _ = brute_force_qbf(formula)
    result = solve_qbf_by_expansion(formula)
    assert result.is_sat == expected
    if result.is_sat:
        check_witness(formula, result.model)


@given(prefixes(), clause_lists)
@settings(max_examples=60, deadline=None)
def test_all_existential_prefix_equals_sat(prefix, clause_list):
    """With every variable existential, QBF semantics collapse to SAT."""
    from repro.sat.cdcl import solve_cnf
    existential_prefix = [("e", block) for _, block in prefix]
    formula = build(existential_prefix, clause_list)
    expected = solve_cnf(formula.cnf).is_sat
    assert solve_qbf(formula).is_sat == expected
