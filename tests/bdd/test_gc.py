"""Mark-and-sweep GC, the protect/unprotect protocol, and unique-table
collision freedom for edge values past 2**32.

The GC contract under test: protected edges (and everything reachable
from them) keep their *edge values* across a collection — no
re-rooting — while dead nodes return to the free list and the live
count shrinks.  Answers must be unchanged afterwards.
"""

import random

import pytest

import repro.bdd.manager as manager_module
from repro.bdd.manager import FALSE, TRUE, BddManager


def _random_function(manager, rng, n=6, terms=12):
    """A DNF over ``n`` variables, plus its minterm set for checking."""
    minterms = sorted(rng.sample(range(1 << n), terms))
    node = manager.from_minterms(list(range(n)), minterms)
    return node, set(minterms)


def _assert_denotes(manager, node, n, minterms):
    for m in range(1 << n):
        assignment = {i: bool((m >> i) & 1) for i in range(n)}
        assert manager.evaluate(node, assignment) == (m in minterms)


class TestProtectProtocol:
    def test_protect_returns_edge_and_nests(self):
        manager = BddManager(3)
        f = manager.and_(manager.var(0), manager.var(1))
        assert manager.protect(f) == f
        manager.protect(f)
        manager.unprotect(f)
        manager.unprotect(f)
        with pytest.raises(ValueError):
            manager.unprotect(f)

    def test_protected_scope_unwinds_on_error(self):
        manager = BddManager(2)
        f = manager.var(0)
        with pytest.raises(RuntimeError):
            with manager.protected(f):
                assert f in manager._refs
                raise RuntimeError("boom")
        assert f not in manager._refs


class TestGcUnderLoad:
    N = 6

    def test_protected_roots_survive_dead_nodes_freed(self):
        rng = random.Random(7)
        manager = BddManager(self.N)
        node, minterms = _random_function(manager, rng)
        manager.protect(node)
        # Churn: build and abandon functions the sweep should reclaim.
        for _ in range(40):
            garbage, _ = _random_function(manager, rng)
            manager.xor(garbage, node)
        before = manager.node_count()
        freed = manager.gc()
        assert freed > 0
        assert manager.node_count() == before - freed
        assert manager.node_count() < before
        # Same edge value, same function — GC never re-roots.
        _assert_denotes(manager, node, self.N, minterms)
        assert manager.count_models(node, range(self.N)) == len(minterms)

    def test_results_identical_with_and_without_gc(self):
        # The same operation script on a GC'd and an undisturbed manager
        # must intern equal functions to equal *semantics* (edge values
        # may differ once the free list recycles indices).
        def script(manager, collect):
            rng = random.Random(21)
            acc = FALSE
            for round_ in range(12):
                f, _ = _random_function(manager, rng)
                acc = manager.xor(acc, f)
                if collect:
                    with manager.protected(acc):
                        manager.gc()
            return [manager.evaluate(acc,
                                     {i: bool((m >> i) & 1)
                                      for i in range(self.N)})
                    for m in range(1 << self.N)]

        assert script(BddManager(self.N), True) \
            == script(BddManager(self.N), False)

    def test_maybe_gc_respects_threshold_without_arming_allocator(
            self, monkeypatch):
        # maybe_gc collects only at GC_THRESHOLD live nodes, and only
        # when called: the allocator itself never collects.
        manager = BddManager(self.N)
        f = manager.conj(manager.var(i) for i in range(self.N))
        manager.xor(f, manager.var(0))  # garbage
        with manager.protected(f):
            assert manager.maybe_gc() == 0  # under threshold: no sweep
        assert manager.stats()["gc_runs"] == 0
        monkeypatch.setattr(manager_module, "GC_THRESHOLD", 2)
        with manager.protected(f):
            assert manager.maybe_gc() > 0  # over threshold: sweeps

    def test_gc_invalidates_caches_not_answers(self):
        rng = random.Random(11)
        manager = BddManager(self.N)
        f, tf = _random_function(manager, rng)
        g, tg = _random_function(manager, rng)
        before = manager.and_(f, g)
        with manager.protected(f, g, before):
            manager.gc()
        # Recomputing through (now cold) caches reproduces the same
        # canonical edge for the same operands.
        assert manager.and_(f, g) == before
        assert manager.count_models(before, range(self.N)) \
            == len(tf & tg)


class TestUniqueKeyWidening:
    """Edge ids past 2**32 must not alias in the unique table.

    The v2 core packed unique keys as ``(var << 64) | (lo << 32) | hi``
    — an edge value crossing 2**32 silently overflowed into the ``lo``
    field, so two distinct (lo, hi) pairs could unify.  The v3 table
    stores node indices and compares the actual ``var/lo/hi`` fields on
    every probe, which is collision-free at any width; this regression
    test feeds it synthetic edge values straight across the boundary.
    """

    def test_32bit_alias_pairs_stay_distinct(self):
        manager = BddManager(2, use_kernel=False)
        # Under the old packing (lo << 32) | hi these two pairs collide:
        # (5, 2**32 + 8) packs to (6 << 32) | 8, exactly like (6, 8).
        lo_a, hi_a = 5 << 1, (1 << 32) + (8 << 1)
        lo_b, hi_b = 6 << 1, 8 << 1
        a = manager._mk_level(0, lo_a, hi_a)
        b = manager._mk_level(0, lo_b, hi_b)
        assert a != b
        # Hash-consing still works for both: same triple, same edge.
        assert manager._mk_level(0, lo_a, hi_a) == a
        assert manager._mk_level(0, lo_b, hi_b) == b
        assert manager._lo[a >> 1] == lo_a and manager._hi[a >> 1] == hi_a
        assert manager._lo[b >> 1] == lo_b and manager._hi[b >> 1] == hi_b

    def test_random_wide_triples_never_unify(self):
        rng = random.Random(0)
        manager = BddManager(4, use_kernel=False)
        seen = {}
        for _ in range(500):
            lo = rng.randrange(1 << 40) << 1
            hi = rng.randrange(1 << 40) << 1  # regular: no renormalization
            if lo == hi:
                continue
            level = rng.randrange(4)
            edge = manager._mk_level(level, lo, hi)
            key = (level, lo, hi)
            if key in seen:
                assert seen[key] == edge  # consing
            else:
                assert edge not in seen.values()  # no aliasing
                seen[key] = edge

    def test_node_store_caps_at_int31(self):
        # The int32 unique table addresses at most 2**31 nodes; the
        # allocator must fail loudly at the cap, never wrap.
        manager = BddManager(1)
        with pytest.raises(MemoryError):
            manager._extend_free(0x7FFFFFFF + 1)


class TestKernelParity:
    def test_kernel_and_pure_python_build_identical_edges(self):
        from repro.bdd.tables import kernel_available
        if not kernel_available():
            pytest.skip("native kernel unavailable")
        rng_a, rng_b = random.Random(5), random.Random(5)
        with_kernel = BddManager(6)
        pure = BddManager(6, use_kernel=False)
        assert with_kernel._klib is not None and pure._klib is None
        for _ in range(6):
            fa, _ = _random_function(with_kernel, rng_a)
            fb, _ = _random_function(pure, rng_b)
            # Same operation sequence, same allocation order — the
            # kernel is bit-exact with the reference loops, down to
            # the edge values themselves.
            assert fa == fb
        assert with_kernel.node_count() == pure.node_count()
        # The kernel pre-extends the free list in batches, so its
        # columns run longer — but the allocated prefix is identical.
        n = len(pure._var)
        assert list(with_kernel._var[:n]) == list(pure._var)
        assert list(with_kernel._lo[:n]) == list(pure._lo)
        assert list(with_kernel._hi[:n]) == list(pure._hi)
        assert all(v == -2 for v in with_kernel._var[n:])  # free tail

    @staticmethod
    def _free_chain(manager):
        chain, i = [], manager._free
        while i:
            chain.append(i)
            i = manager._lo[i]
        return chain

    @staticmethod
    def _live_state(manager):
        """Unique-table bytes, live column entries and the counters."""
        live = [(i, manager._var[i], manager._lo[i], manager._hi[i])
                for i in range(len(manager._var)) if manager._var[i] >= 0]
        return (bytes(manager._utab), live, manager._live,
                manager._ucount, manager.table_grows)

    @staticmethod
    def _churn(manager, rounds, seed):
        """Seeded mix of Python-side construction and kernel/loop apply
        calls; protects a few results and leaves the rest dead."""
        rng = random.Random(seed)
        n = 10
        acc = FALSE
        for r in range(rounds):
            f = manager.from_minterms(list(range(n)),
                                      rng.sample(range(1 << n), 40))
            g = manager.from_minterms(list(range(n)),
                                      rng.sample(range(1 << n), 40))
            h = manager.ite(f, g, acc)
            acc = manager.xor(acc, manager.and_(h, manager.var(r % n)))
            if r % 10 == 0:
                manager.protect(h)
        return acc

    def _assert_same_after_sweep(self, native, pure):
        assert self._live_state(native) == self._live_state(pure)
        assert native._free == pure._free != 0
        # Freed nodes too: marked free, high edge cleared.
        n = len(pure._var)
        assert list(native._var[:n]) == list(pure._var)
        assert list(native._hi[:n]) == list(pure._hi)
        # The native manager's free list continues into its unused
        # pre-extended tail, ascending from where the pure columns end.
        chain = self._free_chain(native)
        assert [i for i in chain if i < n] == self._free_chain(pure)
        tail = [i for i in chain if i >= n]
        assert tail == list(range(n, n + len(tail)))

    def test_table_upkeep_is_byte_identical_to_pure_python(self):
        # Growth, rebuild, free-list threading and the GC sweep run as
        # kernel loops on one manager and as Python loops on the
        # other; both must leave the very same tables behind.
        from repro.bdd.tables import kernel_available
        if not kernel_available():
            pytest.skip("native kernel unavailable")
        native = BddManager(10)
        pure = BddManager(10, use_kernel=False)
        roots = [self._churn(m, 130, seed=17) for m in (native, pure)]
        assert roots[0] == roots[1]
        assert pure.table_grows >= 3
        assert self._live_state(native) == self._live_state(pure)
        freed = [m.gc(extra_roots=[r]) for m, r in zip((native, pure), roots)]
        assert freed[0] == freed[1] > 0
        self._assert_same_after_sweep(native, pure)
        # Regrow through the freed slots and past them (the native side
        # re-extends its free list), then sweep again.
        for m, r in zip((native, pure), roots):
            m.protect(r)
            self._churn(m, 40, seed=29)
        assert self._live_state(native) == self._live_state(pure)
        assert native.gc() == pure.gc() > 0
        self._assert_same_after_sweep(native, pure)
        native._rebuild_utab()
        pure._rebuild_utab()
        assert self._live_state(native) == self._live_state(pure)

    def test_extend_free_threads_ascending_chain_onto_old_head(self):
        # Each batch becomes free slots base, base+1, ..., base+count-1,
        # whose last link is the previous free-list head.
        from repro.bdd.tables import kernel_available
        if not kernel_available():
            pytest.skip("native kernel unavailable")
        m = BddManager(3)
        head = m._free
        old_chain = self._free_chain(m)
        base1 = len(m._var)
        m._extend_free(5000)
        base2 = len(m._var)
        m._extend_free(300)
        assert base2 == base1 + 5000 and len(m._var) == base2 + 300
        assert m._free == base2
        assert m._lo[base1 + 4999] == head
        assert self._free_chain(m) == (list(range(base2, base2 + 300))
                                       + list(range(base1, base1 + 5000))
                                       + old_chain)
        assert all(v == -2 for v in m._var[base1:])
        assert all(h == 0 for h in m._hi[base1:])
