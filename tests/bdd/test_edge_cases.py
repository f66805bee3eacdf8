"""BDD manager edge cases and invariants not covered elsewhere."""

import pytest

from repro.bdd.manager import FALSE, TRUE, BddManager


class TestTerminalHandling:
    def test_quantifying_terminals_is_identity(self):
        manager = BddManager(3)
        assert manager.forall(TRUE, [0, 1, 2]) == TRUE
        assert manager.forall(FALSE, [0, 1, 2]) == FALSE
        assert manager.exists(TRUE, []) == TRUE

    def test_top_var_of_terminal_raises(self):
        manager = BddManager(1)
        with pytest.raises(ValueError):
            manager.top_var(TRUE)

    def test_evaluate_terminals_ignores_assignment(self):
        manager = BddManager(2)
        assert manager.evaluate(TRUE, {}) is True
        assert manager.evaluate(FALSE, {}) is False

    def test_evaluate_missing_variable_raises(self):
        manager = BddManager(2)
        f = manager.var(1)
        with pytest.raises(ValueError):
            manager.evaluate(f, {0: True})


class TestIteIdentities:
    def test_absorption_shortcuts(self):
        manager = BddManager(3)
        f = manager.var(0)
        assert manager.ite(f, TRUE, FALSE) == f
        assert manager.ite(TRUE, f, FALSE) == f
        assert manager.ite(FALSE, FALSE, f) == f
        g = manager.var(1)
        assert manager.ite(f, g, g) == g

    def test_xnor_of_equal_is_true(self):
        manager = BddManager(4)
        f = manager.xor(manager.var(0), manager.and_(manager.var(1),
                                                     manager.var(3)))
        assert manager.xnor(f, f) == TRUE
        assert manager.xor(f, f) == FALSE

    def test_implication_reflexive_and_exhaustive(self):
        manager = BddManager(2)
        f = manager.or_(manager.var(0), manager.var(1))
        assert manager.implies(f, f) == TRUE
        assert manager.implies(FALSE, f) == TRUE
        assert manager.implies(f, TRUE) == TRUE


class TestVariableOrderInvariants:
    def test_nodes_ordered_top_down(self):
        manager = BddManager(4)
        f = manager.conj(manager.var(i) for i in range(4))
        # Walking high edges must encounter strictly increasing levels.
        node = f
        last = -1
        while not manager.is_terminal(node):
            level = manager.top_var(node)
            assert level > last
            last = level
            node = manager.high(node)

    def test_add_var_appends_below(self):
        manager = BddManager(1)
        f = manager.var(0)
        new = manager.add_var("late")
        g = manager.var(new)
        conj = manager.and_(f, g)
        assert manager.top_var(conj) == 0  # original variable stays on top
        assert manager.var_name(new) == "late"

    def test_building_over_unknown_variables_raises(self):
        # A node's level is its variable id, so an id outside the
        # manager's variables is refused rather than built.
        manager = BddManager(2)
        for variables in ([0, 2], [-1, 0]):
            with pytest.raises(ValueError):
                manager.from_minterms(variables, [1])
        with pytest.raises(ValueError):
            manager.minterm({2: True})


class TestGcEdgeCases:
    def test_gc_with_terminal_roots(self):
        manager = BddManager(2)
        manager.xor(manager.var(0), manager.var(1))  # garbage
        assert manager.gc([TRUE, FALSE]) > 0
        # A single terminal node remains; TRUE is its complement edge.
        assert manager.node_count() == 1

    def test_gc_twice_is_stable(self):
        manager = BddManager(3)
        f = manager.from_minterms([0, 1, 2], [1, 3, 6])
        manager.gc([f])
        count = manager.node_count()
        assert manager.gc([f]) == 0
        assert manager.node_count() == count
        assert manager.count_models(f, [0, 1, 2]) == 3

    def test_operations_after_gc_are_consistent(self):
        manager = BddManager(3)
        f = manager.from_minterms([0, 1, 2], [0, 5])
        g = manager.from_minterms([0, 1, 2], [5, 7])
        manager.xor(manager.var(0), manager.var(2))  # garbage
        assert manager.gc([f, g]) > 0
        meet = manager.and_(f, g)
        assert manager.count_models(meet, [0, 1, 2]) == 1
        assert manager.sat_one(meet) is not None


class TestSupportAndSize:
    def test_size_of_shared_structure(self):
        manager = BddManager(2)
        # With complement edges x0 XOR x1 needs a single x1 node (its
        # negation is an edge attribute), one x0 node and one terminal.
        f = manager.xor(manager.var(0), manager.var(1))
        assert manager.size(f) == 3  # 2 internal + 1 terminal

    def test_support_after_quantification_shrinks(self):
        manager = BddManager(3)
        f = manager.conj(manager.var(i) for i in range(3))
        g = manager.exists(f, [1])
        assert manager.support(g) == {0, 2}
