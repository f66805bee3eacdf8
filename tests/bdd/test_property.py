"""Hypothesis property tests for the BDD package.

Strategy: random Boolean functions are drawn as minterm sets; every BDD
operation must agree with the set-algebra semantics of those minterm
sets, and canonical form means equal sets <=> identical node ids.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.manager import FALSE, TRUE, BddManager

N_VARS = 4
ALL = frozenset(range(1 << N_VARS))

minterm_sets = st.frozensets(st.integers(0, (1 << N_VARS) - 1), max_size=16)
var_subsets = st.frozensets(st.integers(0, N_VARS - 1), max_size=N_VARS)


def build(manager, minterms):
    return manager.from_minterms(list(range(N_VARS)), sorted(minterms))


@given(minterm_sets, minterm_sets)
@settings(max_examples=200, deadline=None)
def test_and_or_xor_match_set_algebra(a_terms, b_terms):
    manager = BddManager(N_VARS)
    a = build(manager, a_terms)
    b = build(manager, b_terms)
    assert manager.and_(a, b) == build(manager, a_terms & b_terms)
    assert manager.or_(a, b) == build(manager, a_terms | b_terms)
    assert manager.xor(a, b) == build(manager, a_terms ^ b_terms)
    assert manager.not_(a) == build(manager, ALL - a_terms)


@given(minterm_sets, minterm_sets)
@settings(max_examples=100, deadline=None)
def test_canonicity(a_terms, b_terms):
    manager = BddManager(N_VARS)
    a = build(manager, a_terms)
    b = build(manager, b_terms)
    assert (a == b) == (a_terms == b_terms)


@given(minterm_sets)
@settings(max_examples=100, deadline=None)
def test_count_models_equals_cardinality(terms):
    manager = BddManager(N_VARS)
    f = build(manager, terms)
    assert manager.count_models(f, range(N_VARS)) == len(terms)
    enumerated = {
        sum(int(m[v]) << v for v in range(N_VARS))
        for m in manager.iter_models(f, range(N_VARS))
    }
    assert enumerated == set(terms)


@given(minterm_sets, var_subsets)
@settings(max_examples=150, deadline=None)
def test_quantification_matches_set_semantics(terms, quantified):
    manager = BddManager(N_VARS)
    f = build(manager, terms)
    q = sorted(quantified)
    free_mask = sum(1 << v for v in range(N_VARS) if v not in quantified)

    groups = {}
    for m in range(1 << N_VARS):
        groups.setdefault(m & free_mask, []).append(m)
    forall_terms = {m for m in range(1 << N_VARS)
                    if all(x in terms for x in groups[m & free_mask])}
    exists_terms = {m for m in range(1 << N_VARS)
                    if any(x in terms for x in groups[m & free_mask])}

    assert manager.forall(f, q) == build(manager, forall_terms)
    assert manager.exists(f, q) == build(manager, exists_terms)


@given(minterm_sets, minterm_sets, minterm_sets)
@settings(max_examples=100, deadline=None)
def test_ite_semantics(f_terms, g_terms, h_terms):
    manager = BddManager(N_VARS)
    f = build(manager, f_terms)
    g = build(manager, g_terms)
    h = build(manager, h_terms)
    expected = (f_terms & g_terms) | ((ALL - f_terms) & h_terms)
    assert manager.ite(f, g, h) == build(manager, expected)


@given(minterm_sets, minterm_sets)
@settings(max_examples=60, deadline=None)
def test_gc_preserves_functions(a_terms, b_terms):
    manager = BddManager(N_VARS)
    a = build(manager, a_terms)
    b = build(manager, b_terms)
    manager.xor(a, b)  # garbage
    manager.gc([a, b])
    # Surviving edges keep their values, so rebuilding is a lookup.
    assert build(manager, a_terms) == a
    assert build(manager, b_terms) == b
