"""Quantification tests — the operation at the heart of Section 5.2."""

import random

import pytest

from repro.bdd.manager import FALSE, TRUE, BddManager


def random_function(manager, rng, n_vars):
    minterms = [m for m in range(1 << n_vars) if rng.random() < 0.5]
    return manager.from_minterms(list(range(n_vars)), minterms), minterms


class TestForall:
    def test_paper_cofactor_identity(self):
        # "forall x h = h(x=0) AND h(x=1)" — quoted from Section 5.2.
        manager = BddManager(3)
        rng = random.Random(11)
        for _ in range(20):
            f, _ = random_function(manager, rng, 3)
            for var in range(3):
                expected = manager.and_(manager.restrict(f, var, False),
                                        manager.restrict(f, var, True))
                assert manager.forall(f, [var]) == expected

    def test_forall_all_vars_yields_terminal(self):
        manager = BddManager(2)
        f = manager.or_(manager.var(0), manager.var(1))
        assert manager.forall(f, [0, 1]) == FALSE  # not valid
        assert manager.forall(TRUE, [0, 1]) == TRUE

    def test_forall_tautology(self):
        manager = BddManager(2)
        f = manager.or_(manager.var(0), manager.not_(manager.var(0)))
        assert manager.forall(f, [0, 1]) == TRUE

    def test_order_of_quantification_irrelevant(self):
        manager = BddManager(4)
        rng = random.Random(5)
        f, _ = random_function(manager, rng, 4)
        a = manager.forall(manager.forall(f, [0]), [2])
        b = manager.forall(manager.forall(f, [2]), [0])
        c = manager.forall(f, [0, 2])
        assert a == b == c


class TestExists:
    def test_exists_cofactor_identity(self):
        manager = BddManager(3)
        rng = random.Random(13)
        for _ in range(20):
            f, _ = random_function(manager, rng, 3)
            for var in range(3):
                expected = manager.or_(manager.restrict(f, var, False),
                                       manager.restrict(f, var, True))
                assert manager.exists(f, [var]) == expected

    def test_exists_of_satisfiable_is_true(self):
        manager = BddManager(3)
        f = manager.and_(manager.var(0),
                         manager.and_(manager.var(1), manager.var(2)))
        assert manager.exists(f, [0, 1, 2]) == TRUE

    def test_duality(self):
        # forall x f == NOT exists x NOT f
        manager = BddManager(3)
        rng = random.Random(17)
        for _ in range(20):
            f, _ = random_function(manager, rng, 3)
            variables = [v for v in range(3) if rng.random() < 0.7]
            left = manager.forall(f, variables)
            right = manager.not_(manager.exists(manager.not_(f), variables))
            assert left == right


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    def test_forall_semantics_exhaustively(self, seed):
        n_vars = 4
        manager = BddManager(n_vars)
        rng = random.Random(seed)
        f, minterms = random_function(manager, rng, n_vars)
        quantified_vars = [v for v in range(n_vars) if rng.random() < 0.5]
        result = manager.forall(f, quantified_vars)
        free = [v for v in range(n_vars) if v not in quantified_vars]
        minterm_set = set(minterms)
        for bits in range(1 << len(free)):
            assignment = {v: bool((bits >> i) & 1) for i, v in enumerate(free)}
            expected = True
            for qbits in range(1 << len(quantified_vars)):
                full = dict(assignment)
                for i, v in enumerate(quantified_vars):
                    full[v] = bool((qbits >> i) & 1)
                packed = sum(int(full[v]) << v for v in range(n_vars))
                if packed not in minterm_set:
                    expected = False
                    break
            got = manager.evaluate(result, {**assignment,
                                            **{v: False for v in quantified_vars}})
            assert got == expected


class TestMatchForall:
    """The row fold against the two-step route it replaces:
    ``forall(conj(dc OR (out XNOR on)), X)`` over the same manager, so
    equal functions are equal edges."""

    M = 4  # select variables below the X block

    def _instance(self, manager, rng, n, dont_cares):
        xs = list(range(n))
        rows = range(1 << n)
        on_rows = [{r for r in rows if rng.random() < 0.5} for _ in xs]
        if dont_cares:
            dc_rows = [{r for r in rows if rng.random() < 0.3} for _ in xs]
            if rng.random() < 0.5:
                dc_rows[rng.randrange(n)] = set(rows)
        else:
            dc_rows = [set() for _ in xs]
        on = [manager.from_minterms(xs, s) for s in on_rows]
        dc = [manager.from_minterms(xs, s) for s in dc_rows]
        # Plant a solution half the time: under one select cube every
        # output agrees with the spec wherever it is specified.
        planted = None
        if rng.random() < 0.5:
            planted = manager.minterm({y: rng.random() < 0.5
                                       for y in range(n, n + self.M)})
        everything = list(range(n + self.M))
        outputs = []
        for l in xs:
            noise = manager.from_minterms(
                everything, [t for t in range(1 << (n + self.M))
                             if rng.random() < 0.5])
            if planted is None:
                outputs.append(noise)
                continue
            agree = manager.from_minterms(
                xs, [r for r in rows if r in on_rows[l]
                     or (r in dc_rows[l] and rng.random() < 0.5)])
            outputs.append(manager.ite(planted, agree, noise))
        return outputs, on, dc, planted

    @staticmethod
    def _two_step(manager, outputs, on, dc, n):
        equality = manager.conj(
            manager.or_(dc[l], manager.xnor(outputs[l], on[l]))
            for l in range(n))
        return manager.forall(equality, range(n))

    def _check(self, n, dont_cares, use_kernel, seed):
        from repro.bdd.tables import kernel_available
        if use_kernel and not kernel_available():
            pytest.skip("native kernel unavailable")
        rng = random.Random(seed)
        solutions = 0
        for _ in range(12):
            manager = BddManager(n + self.M, use_kernel=use_kernel)
            outputs, on, dc, planted = self._instance(
                manager, rng, n, dont_cares)
            got = manager.match_forall(outputs, on, dc, n)
            assert got == self._two_step(manager, outputs, on, dc, n)
            if planted is not None:
                assert manager.and_(got, planted) == planted
            solutions += got != FALSE
        assert solutions > 0

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("dont_cares", [False, True])
    @pytest.mark.parametrize("use_kernel", [None, False])
    def test_equals_two_step_route(self, n, dont_cares, use_kernel):
        self._check(n, dont_cares, use_kernel, seed=n * 7)

    def test_true_dont_care_lines_are_skipped(self):
        # Lines whose cover is the constant TRUE constrain nothing, and
        # a spec with every line free is satisfied by any cascade.
        manager = BddManager(3)
        outputs = [manager.var(2), manager.and_(manager.var(0),
                                                manager.var(2))]
        on = [manager.var(0), manager.var(1)]
        assert manager.match_forall(outputs, on, [TRUE, TRUE], 2) == TRUE
        assert manager.match_forall(outputs, on, [FALSE, TRUE], 2) \
            == FALSE

    def test_counts_one_quantifier_call_per_folded_row(self):
        manager = BddManager(3)
        outputs = [manager.var(0), manager.var(1)]
        on = [manager.var(0), manager.var(1)]
        before = manager.quant_calls
        assert manager.match_forall(outputs, on, [FALSE, FALSE], 2) == TRUE
        assert manager.quant_calls - before == 4
        # A mismatch on the first row ends the fold there.
        wrong = [manager.var(0), manager.nvar(1)]
        before = manager.quant_calls
        assert manager.match_forall(wrong, on, [FALSE, FALSE], 2) == FALSE
        assert manager.quant_calls - before == 1
