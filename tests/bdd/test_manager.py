"""Unit tests for the ROBDD manager: construction, connectives, canonicity."""

import itertools

import pytest

from repro.bdd.manager import FALSE, TRUE, BddManager


def eval_all(manager, node, n_vars):
    """Truth vector of a node over all assignments (var i = bit i)."""
    out = []
    for bits in range(1 << n_vars):
        assignment = {i: bool((bits >> i) & 1) for i in range(n_vars)}
        out.append(manager.evaluate(node, assignment))
    return out


class TestBasics:
    def test_terminals(self):
        manager = BddManager(2)
        assert manager.is_terminal(FALSE)
        assert manager.is_terminal(TRUE)
        assert not manager.is_terminal(manager.var(0))

    def test_var_and_nvar(self):
        manager = BddManager(2)
        assert eval_all(manager, manager.var(0), 2) == [False, True, False, True]
        assert eval_all(manager, manager.nvar(0), 2) == [True, False, True, False]
        assert manager.literal(1, True) == manager.var(1)
        assert manager.literal(1, False) == manager.nvar(1)

    def test_unknown_variable_rejected(self):
        manager = BddManager(1)
        with pytest.raises(ValueError):
            manager.var(3)

    def test_hash_consing_gives_identical_nodes(self):
        manager = BddManager(3)
        a = manager.and_(manager.var(0), manager.var(1))
        b = manager.and_(manager.var(0), manager.var(1))
        assert a == b  # same node id: canonical representation

    def test_reduction_rule_redundant_test(self):
        manager = BddManager(2)
        # ite(x0, f, f) must be f without creating a node.
        f = manager.var(1)
        assert manager.ite(manager.var(0), f, f) == f


class TestConnectives:
    @pytest.mark.parametrize("n_vars", [1, 2, 3])
    def test_connectives_against_python_semantics(self, n_vars):
        manager = BddManager(n_vars)
        variables = [manager.var(i) for i in range(n_vars)]
        cases = {
            "and": (manager.and_, lambda a, b: a and b),
            "or": (manager.or_, lambda a, b: a or b),
            "xor": (manager.xor, lambda a, b: a != b),
            "xnor": (manager.xnor, lambda a, b: a == b),
            "implies": (manager.implies, lambda a, b: (not a) or b),
        }
        for u, v in itertools.product(range(n_vars), repeat=2):
            for name, (op, semantics) in cases.items():
                node = op(variables[u], variables[v])
                for bits in range(1 << n_vars):
                    assignment = {i: bool((bits >> i) & 1) for i in range(n_vars)}
                    expected = semantics(assignment[u], assignment[v])
                    assert manager.evaluate(node, assignment) == expected, name

    def test_not(self):
        manager = BddManager(1)
        assert manager.not_(TRUE) == FALSE
        assert manager.not_(FALSE) == TRUE
        assert manager.not_(manager.not_(manager.var(0))) == manager.var(0)

    def test_conj_disj_short_circuit(self):
        manager = BddManager(3)
        vs = [manager.var(i) for i in range(3)]
        assert manager.conj([]) == TRUE
        assert manager.disj([]) == FALSE
        assert manager.conj(vs + [FALSE]) == FALSE
        assert manager.disj(vs + [TRUE]) == TRUE

    def test_de_morgan(self):
        manager = BddManager(2)
        a, b = manager.var(0), manager.var(1)
        assert manager.not_(manager.and_(a, b)) == \
            manager.or_(manager.not_(a), manager.not_(b))


class TestRestrictCompose:
    def test_restrict_fixes_variable(self):
        manager = BddManager(2)
        f = manager.xor(manager.var(0), manager.var(1))
        assert manager.restrict(f, 0, False) == manager.var(1)
        assert manager.restrict(f, 0, True) == manager.not_(manager.var(1))

    def test_restrict_missing_variable_is_identity(self):
        manager = BddManager(3)
        f = manager.and_(manager.var(0), manager.var(2))
        assert manager.restrict(f, 1, True) == f

    def test_compose_substitutes_function(self):
        manager = BddManager(3)
        f = manager.xor(manager.var(0), manager.var(1))
        g = manager.and_(manager.var(1), manager.var(2))
        composed = manager.compose(f, 0, g)
        expected = manager.xor(g, manager.var(1))
        assert composed == expected

    def test_shannon_expansion_identity(self):
        manager = BddManager(3)
        f = manager.or_(manager.and_(manager.var(0), manager.var(1)),
                        manager.var(2))
        for var in range(3):
            lo = manager.restrict(f, var, False)
            hi = manager.restrict(f, var, True)
            rebuilt = manager.ite(manager.var(var), hi, lo)
            assert rebuilt == f


class TestStructure:
    def test_size_counts_reachable_nodes(self):
        manager = BddManager(2)
        assert manager.size(TRUE) == 1
        x = manager.var(0)
        assert manager.size(x) == 2  # node + shared terminal
        f = manager.and_(x, manager.var(1))
        assert manager.size(f) == 3

    def test_support(self):
        manager = BddManager(4)
        f = manager.and_(manager.var(0), manager.var(2))
        assert manager.support(f) == {0, 2}
        assert manager.support(TRUE) == set()

    def test_gc_preserves_protected_functions(self):
        manager = BddManager(3)
        f = manager.xor(manager.var(0), manager.var(1))
        g = manager.and_(manager.var(1), manager.var(2))
        # Create garbage nodes.
        for i in range(3):
            manager.or_(manager.var(i), manager.not_(f))
        before_f = eval_all(manager, f, 3)
        before_g = eval_all(manager, g, 3)
        with manager.protected(f, g):
            assert manager.gc() > 0
        assert eval_all(manager, f, 3) == before_f
        assert eval_all(manager, g, 3) == before_g
        # Further operations still work after collection.
        assert manager.and_(f, g) == manager.and_(g, f)

    def test_gc_shrinks_store(self):
        manager = BddManager(4)
        f = manager.var(0)
        for i in range(1, 4):
            manager.xor(f, manager.var(i))  # garbage
        before = manager.node_count()
        manager.gc([f])
        assert manager.node_count() < before

    def test_to_dot_contains_nodes_and_edges(self):
        manager = BddManager(2, var_names=["a", "b"])
        f = manager.and_(manager.var(0), manager.var(1))
        dot = manager.to_dot(f)
        assert "digraph" in dot
        assert 'label="a"' in dot and 'label="b"' in dot
        assert "style=dashed" in dot

    def test_cache_size_and_clear(self):
        manager = BddManager(3)
        manager.xor(manager.var(0), manager.var(1))
        assert manager.cache_size() > 0
        manager.clear_caches()
        assert manager.cache_size() == 0


class TestFromMinterms:
    def test_empty_and_full(self):
        manager = BddManager(2)
        assert manager.from_minterms([0, 1], []) == FALSE
        assert manager.from_minterms([0, 1], range(4)) == TRUE

    def test_single_minterm(self):
        manager = BddManager(2)
        f = manager.from_minterms([0, 1], [0b10])
        assert eval_all(manager, f, 2) == [False, False, True, False]

    def test_matches_or_of_minterm_cubes(self):
        manager = BddManager(3)
        terms = [0b001, 0b110, 0b111]
        f = manager.from_minterms([0, 1, 2], terms)
        expected = manager.disj(
            manager.minterm({i: bool((t >> i) & 1) for i in range(3)})
            for t in terms
        )
        assert f == expected

    def test_variable_mapping_respects_bit_positions(self):
        # Bit j of the minterm refers to variables[j], not variable j.
        manager = BddManager(3)
        f = manager.from_minterms([2, 0], [0b01])  # var2=1, var0=0
        assignment = {0: False, 1: False, 2: True}
        assert manager.evaluate(f, assignment)
        assert not manager.evaluate(f, {0: True, 1: False, 2: True})

    def test_out_of_range_minterm_rejected(self):
        manager = BddManager(1)
        with pytest.raises(ValueError):
            manager.from_minterms([0], [2])
