"""Randomized equivalence of the v2 manager against a truth-table oracle.

The oracle represents a function over ``NV`` variables as a
``2**NV``-bit integer: bit ``m`` is the function value on the
assignment whose bit ``i`` gives variable ``i``.  Every manager
operation has a one-line oracle counterpart, so random operation
sequences cross-check connectives, cofactors, quantifiers, model
counting and the complement-edge canonicity rules all at once.

Set ``REPRO_TEST_SEED`` to explore a different region of the operation
space; the default of 0 keeps runs reproducible.  The effective seed is
printed so pytest's captured stdout identifies a failing draw.
"""

import os
import random

import pytest

from repro.bdd.manager import FALSE, TRUE, BddManager

NV = 5
ALL = (1 << (1 << NV)) - 1  # truth-table of the constant-1 function

BASE_SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))


def rng_for(offset: int, seed: int) -> random.Random:
    """RNG for one parametrized case, mixed with REPRO_TEST_SEED."""
    effective = BASE_SEED * 10_000 + offset + seed
    print(f"REPRO_TEST_SEED={BASE_SEED} effective_seed={effective}")
    return random.Random(effective)


def tt_var(i: int) -> int:
    """Truth table of variable ``i`` over NV variables."""
    table = 0
    for m in range(1 << NV):
        if (m >> i) & 1:
            table |= 1 << m
    return table


VAR_TABLES = [tt_var(i) for i in range(NV)]


def tt_restrict(table: int, var: int, value: bool) -> int:
    """Truth table of the cofactor f|_{var=value}."""
    result = 0
    for m in range(1 << NV):
        frozen = (m | (1 << var)) if value else (m & ~(1 << var))
        if (table >> frozen) & 1:
            result |= 1 << m
    return result


def tt_quantify(table: int, variables, forall: bool) -> int:
    for v in variables:
        lo = tt_restrict(table, v, False)
        hi = tt_restrict(table, v, True)
        table = (lo & hi) if forall else (lo | hi)
    return table


def random_pair(rng, manager, depth: int):
    """Build one random function simultaneously as a BDD and a table."""
    if depth == 0:
        choice = rng.randrange(NV + 2)
        if choice == NV:
            return TRUE, ALL
        if choice == NV + 1:
            return FALSE, 0
        return manager.var(choice), VAR_TABLES[choice]
    op = rng.choice(["and", "or", "xor", "xnor", "not", "ite", "implies"])
    f, tf = random_pair(rng, manager, depth - 1)
    if op == "not":
        return manager.not_(f), ALL & ~tf
    g, tg = random_pair(rng, manager, depth - 1)
    if op == "and":
        return manager.and_(f, g), tf & tg
    if op == "or":
        return manager.or_(f, g), tf | tg
    if op == "xor":
        return manager.xor(f, g), tf ^ tg
    if op == "xnor":
        return manager.xnor(f, g), ALL & ~(tf ^ tg)
    if op == "implies":
        return manager.implies(f, g), (ALL & ~tf) | tg
    h, th = random_pair(rng, manager, depth - 1)
    return manager.ite(f, g, h), (tf & tg) | (ALL & ~tf & th)


def assert_matches(manager, node: int, table: int) -> None:
    """The BDD's full truth table equals the oracle's."""
    for m in range(1 << NV):
        assignment = {i: bool((m >> i) & 1) for i in range(NV)}
        assert manager.evaluate(node, assignment) == bool((table >> m) & 1), (
            f"mismatch on assignment {m:0{NV}b}")


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_connectives(self, seed):
        rng = rng_for(0, seed)
        manager = BddManager(NV)
        node, table = random_pair(rng, manager, depth=4)
        assert_matches(manager, node, table)

    @pytest.mark.parametrize("seed", range(6))
    def test_cofactors(self, seed):
        rng = rng_for(100, seed)
        manager = BddManager(NV)
        node, table = random_pair(rng, manager, depth=4)
        for var in range(NV):
            for value in (False, True):
                assert_matches(manager,
                               manager.restrict(node, var, value),
                               tt_restrict(table, var, value))

    @pytest.mark.parametrize("seed", range(6))
    def test_quantifiers(self, seed):
        rng = rng_for(200, seed)
        manager = BddManager(NV)
        node, table = random_pair(rng, manager, depth=4)
        variables = rng.sample(range(NV), rng.randrange(1, NV + 1))
        assert_matches(manager, manager.exists(node, variables),
                       tt_quantify(table, variables, forall=False))
        assert_matches(manager, manager.forall(node, variables),
                       tt_quantify(table, variables, forall=True))

    @pytest.mark.parametrize("seed", range(6))
    def test_model_counting(self, seed):
        rng = rng_for(300, seed)
        manager = BddManager(NV)
        node, table = random_pair(rng, manager, depth=4)
        assert manager.count_models(node, range(NV)) == bin(table).count("1")
        models = list(manager.iter_models(node, range(NV)))
        assert len(models) == bin(table).count("1")
        for model in models:
            assert manager.evaluate(node, model)


class TestComplementEdgeCanonicity:
    """The invariants that make complement-edge BDDs canonical."""

    @pytest.mark.parametrize("seed", range(8))
    def test_negation_is_edge_flip(self, seed):
        rng = rng_for(400, seed)
        manager = BddManager(NV)
        node, table = random_pair(rng, manager, depth=4)
        neg = manager.not_(node)
        assert neg == node ^ 1  # O(1): just the complement bit
        assert manager.not_(neg) == node
        assert_matches(manager, neg, ALL & ~table)

    @pytest.mark.parametrize("seed", range(8))
    def test_stored_high_edges_are_regular(self, seed):
        # The canonicity rule: the unique table never stores a node
        # whose high edge is complemented (the complement is pushed to
        # the incoming edge), so each function/negation pair costs one
        # node.
        rng = rng_for(500, seed)
        manager = BddManager(NV)
        random_pair(rng, manager, depth=5)
        for hi in manager._hi[1:]:
            assert hi & 1 == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_canonical_identity(self, seed):
        # Semantically equal functions built along different operation
        # routes must return the *same* edge.
        rng = rng_for(600, seed)
        manager = BddManager(NV)
        f, tf = random_pair(rng, manager, depth=4)
        g, tg = random_pair(rng, manager, depth=4)
        assert manager.xor(f, g) == manager.not_(manager.xnor(f, g))
        assert manager.and_(f, g) == manager.not_(
            manager.or_(manager.not_(f), manager.not_(g)))
        assert manager.ite(f, g, FALSE) == manager.and_(f, g)
        assert manager.ite(f, TRUE, g) == manager.or_(f, g)
        if tf == tg:
            assert f == g
        if tf == ALL & ~tg:
            assert f == g ^ 1

    def test_terminal_encoding(self):
        manager = BddManager(2)
        assert TRUE == FALSE ^ 1
        assert manager.not_(TRUE) == FALSE
        assert manager.is_terminal(TRUE) and manager.is_terminal(FALSE)
        assert manager.node_count() == 1  # single shared terminal


class TestAllocTick:
    """The node-allocation tick interrupts a single long apply run."""

    def test_tick_fires_during_apply(self):
        manager = BddManager(14)
        fired = []
        manager.set_alloc_tick(lambda: fired.append(1), interval=64)
        # A dense enough function to allocate well over 64 nodes in one
        # operation sequence.
        f = manager.conj(manager.var(i) for i in range(14))
        for i in range(13):
            f = manager.or_(f, manager.and_(manager.var(i),
                                            manager.nvar(i + 1)))
        assert fired

    def test_tick_exception_aborts_apply(self):
        manager = BddManager(14)

        def boom():
            raise TimeoutError("deadline")

        manager.set_alloc_tick(boom, interval=64)
        with pytest.raises(TimeoutError):
            f = FALSE
            for i in range(1 << 10):
                f = manager.or_(f, manager.minterm(
                    {v: bool((i >> v) & 1) for v in range(14)}))

    def test_uninstall(self):
        manager = BddManager(4)
        manager.set_alloc_tick(lambda: (_ for _ in ()).throw(RuntimeError),
                               interval=1)
        manager.set_alloc_tick(None)
        manager.conj(manager.var(i) for i in range(4))  # must not raise

    def test_bad_interval_rejected(self):
        manager = BddManager(1)
        with pytest.raises(ValueError):
            manager.set_alloc_tick(lambda: None, interval=0)


class TestStatsSemantics:
    """`stats()` counters are cumulative: cache maintenance never
    rewinds them (the regression guarded here: clear_caches and
    collection used to implicitly zero the miss derivation)."""

    def _work(self, manager):
        f = manager.conj(manager.var(i) for i in range(4))
        g = manager.xor(manager.var(0), manager.var(3))
        return manager.or_(f, g)

    def test_counters_survive_clear_caches(self):
        manager = BddManager(4)
        root = self._work(manager)
        before = manager.stats()
        assert before["ite_calls"] > 0
        assert before["ite_cache_entries"] > 0
        manager.clear_caches()
        after = manager.stats()
        # Cumulative counters are monotone across the clear...
        for key in ("ite_calls", "ite_cache_hits", "quant_calls",
                    "quant_cache_hits"):
            assert after[key] == before[key]
        # ...so the derived miss figure (calls - hits, the engine's
        # bdd.ite_cache_misses) is unchanged by dropping the entries.
        assert (after["ite_calls"] - after["ite_cache_hits"]
                == before["ite_calls"] - before["ite_cache_hits"])
        assert after["ite_cache_entries"] == 0
        assert after["cache_clears"] == before["cache_clears"] + 1
        # Recomputing the same function counts fresh calls.
        self._work(manager)
        assert manager.stats()["ite_calls"] > after["ite_calls"]

    def test_counters_survive_gc(self):
        manager = BddManager(4)
        root = self._work(manager)
        manager.xor(root, manager.var(1))  # garbage to collect
        before = manager.stats()
        assert manager.gc([root]) > 0
        after = manager.stats()
        for key in ("ite_calls", "ite_cache_hits",
                    "quant_calls", "quant_cache_hits", "cache_clears"):
            assert after[key] >= before[key], key
        assert after["ite_calls"] == before["ite_calls"]
        assert after["nodes"] <= before["nodes"]
        assert after["peak_nodes"] == before["peak_nodes"]
        # The surviving root still denotes the same function.
        assignment = {i: True for i in range(4)}
        assert manager.evaluate(root, assignment)

    def test_peak_nodes_monotone(self):
        manager = BddManager(4)
        root = self._work(manager)
        peak = manager.stats()["peak_nodes"]
        manager.gc([root])
        assert manager.stats()["peak_nodes"] == peak
        assert manager.stats()["nodes"] <= peak
