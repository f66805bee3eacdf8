"""Expression-DAG and Tseitin-transformation tests."""

import itertools
import random

import pytest

from repro.bdd.manager import BddManager
from repro.sat.cnf import Cnf, evaluate_cnf
from tests.sat.dpll import dpll_solve
from repro.sat.expr import ExprBuilder, expr_from_bdd


def fresh_builder(n_vars):
    cnf = Cnf(n_vars)
    return cnf, ExprBuilder(cnf)


class TestSimplification:
    def test_constants_fold(self):
        _, b = fresh_builder(2)
        x = b.var(1)
        assert b.and_([x, b.true]) is x
        assert b.and_([x, b.false]) is b.false
        assert b.or_([x, b.false]) is x
        assert b.or_([x, b.true]) is b.true
        assert b.xor(x, b.false) is x
        assert b.not_(b.not_(x)) is x
        assert b.xor(x, x) is b.false

    def test_hash_consing_shares_nodes(self):
        _, b = fresh_builder(2)
        left = b.and_([b.var(1), b.var(2)])
        right = b.and_([b.var(1), b.var(2)])
        assert left is right

    def test_var_range_checked(self):
        _, b = fresh_builder(1)
        with pytest.raises(ValueError):
            b.var(5)


class TestTseitinEquisatisfiability:
    def random_expr(self, builder, rng, variables, depth):
        if depth == 0 or rng.random() < 0.3:
            node = rng.choice(variables)
            return builder.not_(node) if rng.random() < 0.5 else node
        op = rng.choice(["and", "or", "xor", "not"])
        if op == "not":
            return builder.not_(self.random_expr(builder, rng, variables, depth - 1))
        if op == "xor":
            return builder.xor(self.random_expr(builder, rng, variables, depth - 1),
                               self.random_expr(builder, rng, variables, depth - 1))
        children = [self.random_expr(builder, rng, variables, depth - 1)
                    for _ in range(rng.randint(2, 3))]
        return builder.and_(children) if op == "and" else builder.or_(children)

    @pytest.mark.parametrize("seed", range(12))
    def test_models_preserved(self, seed):
        """For each input assignment, the CNF restricted to it must be
        satisfiable iff the expression evaluates true (Tseitin [20])."""
        rng = random.Random(seed)
        n = 4
        cnf, builder = fresh_builder(n)
        variables = [builder.var(i + 1) for i in range(n)]
        node = self.random_expr(builder, rng, variables, depth=3)
        builder.assert_true(node)
        for bits in range(1 << n):
            model = {i + 1: bool((bits >> i) & 1) for i in range(n)}
            expected = builder.evaluate(node, model)
            restricted = cnf.copy()
            for var, value in model.items():
                restricted.add_unit(var if value else -var)
            assert (dpll_solve(restricted) is not None) == expected

    def test_tseitin_cache_encodes_node_once(self):
        cnf, builder = fresh_builder(2)
        node = builder.and_([builder.var(1), builder.var(2)])
        first = builder.tseitin(node)
        clause_count = len(cnf.clauses)
        second = builder.tseitin(node)
        assert first == second
        assert len(cnf.clauses) == clause_count

    def test_const_literals_carry_truth_value(self):
        cnf, builder = fresh_builder(0)
        true_lit = builder.tseitin(builder.true)
        false_lit = builder.tseitin(builder.false)
        model = dpll_solve(cnf)
        assert model is not None
        assert model[abs(true_lit)] == (true_lit > 0)
        # The false constant's literal must evaluate false in every model.
        value = model[abs(false_lit)] if false_lit > 0 else not model[abs(false_lit)]
        assert value is False


class TestExprFromBdd:
    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_semantics(self, seed):
        rng = random.Random(seed)
        n = 4
        manager = BddManager(n)
        minterms = [m for m in range(1 << n) if rng.random() < 0.5]
        f = manager.from_minterms(list(range(n)), minterms)
        cnf, builder = fresh_builder(n)
        var_map = {i: builder.var(i + 1) for i in range(n)}
        node = expr_from_bdd(manager, f, var_map, builder)
        for bits in range(1 << n):
            model = {i + 1: bool((bits >> i) & 1) for i in range(n)}
            assert builder.evaluate(node, model) == (bits in set(minterms))

    def test_terminals(self):
        manager = BddManager(1)
        cnf, builder = fresh_builder(1)
        var_map = {0: builder.var(1)}
        assert expr_from_bdd(manager, 0, var_map, builder) is builder.false
        assert expr_from_bdd(manager, 1, var_map, builder) is builder.true
