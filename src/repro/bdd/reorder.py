"""Variable reordering for BDDs: in-place Rudell sifting plus rebuilds.

The paper fixes the order "X before Y" and notes that the opposite order
makes the ``F_d`` BDD enumerate *every* function synthesizable with at
most ``d`` gates — an exponential blow-up.  :func:`rebuild_with_order` /
:func:`best_of_orders` measure that claim (ablation A1) by rebuilding
into a fresh manager.

:func:`sift` is the production path: in-place dynamic reordering on the
v3 packed tables.  Every variable (largest level first) is bubbled
through the order with adjacent-level swaps, recording the live-node
count at each position, and parked where the diagram was smallest;
growth past ``max_growth``× the best size aborts a direction early
(Rudell's algorithm).  The crucial property — inherited from CUDD's
``cuddSwapInPlace`` — is *edge stability*: a swap rewrites interacting
nodes in place, so every edge handed out before the reorder still
denotes the same function afterwards.  No re-rooting, no translation
maps; callers only need their roots protected (or reachable from
protected edges) so the swap-time reference counts see them.

Why in-place swaps preserve the complement-edge invariant: a rebuilt
node's new high child is ``g1 = (x ? f11 : f01)`` where ``f11`` is
either a stored high edge (regular by the manager's normalization) or
``f1`` itself (also a stored high edge), so the constructor never has
to flip it — ``g1`` comes out regular, and the node keeps representing
the same un-negated function at the same index.

:func:`restore_order`/:func:`restore_block_order` bubble a level range
back to sorted-variable-id order — required before
``iter_models``-based solution extraction, which enumerates in id
order.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd.manager import FALSE, BddManager

__all__ = ["rebuild_with_order", "best_of_orders", "sift",
           "restore_order", "restore_block_order"]


class _SiftSession:
    """Reference counts + per-level node lists for one reordering pass.

    Reference counts (parent links plus the manager's protected edges)
    exist only for the session: they tell a swap which bypassed nodes
    died so they can be reclaimed immediately — without them a long
    sift would drag an ever-growing tail of dead nodes through every
    level and the size metric would be meaningless.  Level lists are
    maintained incrementally per swap; entries are validated lazily
    against the ``_var`` column (a reclaimed node simply stops
    matching), so reclamation never has to search a list.
    """

    def __init__(self, manager: BddManager):
        self.m = manager
        n = len(manager._var)
        self.ref = array("q", (0,)) * n
        self.buckets: List[List[int]] = [[] for _ in range(manager.num_vars)]
        self.dead: List[int] = []
        var_col = manager._var
        lo_col = manager._lo
        hi_col = manager._hi
        ref = self.ref
        buckets = self.buckets
        for i in range(1, n):
            level = var_col[i]
            if level >= 0:
                buckets[level].append(i)
                c = lo_col[i] >> 1
                if c:
                    ref[c] += 1
                c = hi_col[i] >> 1
                if c:
                    ref[c] += 1
        for edge, count in self.m._refs.items():
            i = edge >> 1
            if i:
                ref[i] += count

    def _mk(self, level: int, lo: int, hi: int) -> int:
        """Constructor wrapper that keeps the session refcounts exact.

        Returns the edge and accounts for the caller's new link to it;
        a freshly allocated node additionally charges its two child
        links.  (``_mk_level`` may normalize complements, but that only
        flips edge bits, never the child indices the counts track.)
        """
        m = self.m
        if lo == hi:
            if lo > 1:
                self.ref[lo >> 1] += 1
            return lo
        live0 = m._live
        edge = m._mk_level(level, lo, hi)
        i = edge >> 1
        ref = self.ref
        if i >= len(ref):
            ref.extend(array("q", (0,)) * (len(m._var) - len(ref)))
        ref[i] += 1
        if m._live != live0:
            c = lo >> 1
            if c:
                ref[c] += 1
            c = hi >> 1
            if c:
                ref[c] += 1
            self.buckets[level].append(i)
        return edge

    def swap(self, j: int) -> None:
        """Exchange levels ``j`` and ``j+1`` in place.

        Nodes at ``j+1`` move up unchanged; nodes at ``j`` whose
        children reach ``j+1`` are rewritten in place as
        ``new-top ? (old-top ? f11 : f01) : (old-top ? f10 : f00)``,
        the rest move down unchanged.  Nodes are only ever mutated
        while deleted from the unique table, and bypassed children
        whose reference count hits zero are reclaimed at the end of the
        swap (not before — a later constructor call in the same swap
        may resurrect them through the table).
        """
        m = self.m
        var_col = m._var
        lo_col = m._lo
        hi_col = m._hi
        ref = self.ref
        k = j + 1
        old_upper = [n for n in self.buckets[j] if var_col[n] == j]
        old_lower = [n for n in self.buckets[k] if var_col[n] == k]
        inter: List[int] = []
        moved_down: List[int] = []
        for n in old_upper:
            m._utab_delete(n)
            if var_col[lo_col[n] >> 1] == k or var_col[hi_col[n] >> 1] == k:
                inter.append(n)
            else:
                var_col[n] = k
                moved_down.append(n)
        for n in old_lower:
            m._utab_delete(n)
            var_col[n] = j
        for n in old_lower:
            m._utab_insert(n)
        for n in moved_down:
            m._utab_insert(n)
        new_upper = old_lower
        self.buckets[j] = new_upper
        self.buckets[k] = moved_down  # session _mk appends fresh nodes here
        dead = self.dead
        for n in inter:
            f0 = lo_col[n]
            f1 = hi_col[n]
            i0 = f0 >> 1
            i1 = f1 >> 1
            if var_col[i1] == j:  # old lower node, already relabeled
                f10 = lo_col[i1]
                f11 = hi_col[i1]
            else:
                f10 = f11 = f1
            if var_col[i0] == j:
                c0 = f0 & 1
                f00 = lo_col[i0] ^ c0
                f01 = hi_col[i0] ^ c0
            else:
                f00 = f01 = f0
            g1 = self._mk(k, f01, f11)
            g0 = self._mk(k, f00, f10)
            var_col[n] = j
            lo_col[n] = g0
            hi_col[n] = g1  # always regular: f11 is a stored high edge
            m._utab_insert(n)
            new_upper.append(n)
            for e in (f0, f1):
                i = e >> 1
                if i:
                    ref[i] -= 1
                    if ref[i] == 0:
                        dead.append(i)
        while dead:
            i = dead.pop()
            if ref[i] == 0 and var_col[i] >= 0:
                m._utab_delete(i)
                for e in (lo_col[i], hi_col[i]):
                    c = e >> 1
                    if c:
                        ref[c] -= 1
                        if ref[c] == 0:
                            dead.append(c)
                var_col[i] = -2
                lo_col[i] = m._free
                hi_col[i] = 0
                m._free = i
                m._live -= 1
        va = m._var_at_level
        lv = m._level_of_var
        va[j], va[k] = va[k], va[j]
        lv[va[j]] = j
        lv[va[k]] = k
        m.reorder_swaps += 1


def _reorder_scope(manager: BddManager):
    """Suspend auto-GC and the allocation tick for a reordering pass.

    A swap is only atomic from the outside: mid-swap the two levels are
    transiently inconsistent, so neither the collector nor a raising
    deadline tick may run inside one.  The deadline loses at most one
    reorder pass of granularity; engines re-check between operations.
    """
    if manager._active_stacks:
        raise RuntimeError("cannot reorder while operations are in flight")
    state = (manager._gc_enabled, manager._alloc_tick)
    manager._gc_enabled = False
    manager._alloc_tick = None
    return state


def _reorder_finish(manager: BddManager, state) -> None:
    manager._gc_enabled, manager._alloc_tick = state
    # Reclaimed node indices may be reused by the next operation, so
    # every cached result that could name them must die with the pass.
    manager._bump_gen()
    manager._quant_cache.clear()


def sift(manager: BddManager, lower: int = 0, upper: Optional[int] = None,
         max_growth: float = 1.2) -> int:
    """Rudell sifting over levels ``[lower, upper]``; returns nodes saved.

    Variables are processed largest-level-first; each is swapped down
    to ``upper`` and then up to ``lower``, recording the live-node
    count at every position, and finally parked at its best position.
    A direction aborts early once the diagram grows past ``max_growth``
    times the best size seen for this variable.  Edges remain valid
    throughout (see module docstring); callers must protect roots that
    are not reachable from already-protected edges.
    """
    m = manager
    if upper is None:
        upper = m.num_vars - 1
    if upper <= lower:
        return 0
    state = _reorder_scope(m)
    before = m._live
    try:
        sess = _SiftSession(m)
        by_size = sorted(range(lower, upper + 1),
                         key=lambda level: -len(sess.buckets[level]))
        for v in [m._var_at_level[level] for level in by_size]:
            best = m._live
            limit = best * max_growth
            pos = best_pos = m._level_of_var[v]
            while pos < upper:
                sess.swap(pos)
                pos += 1
                if m._live < best:
                    best = m._live
                    best_pos = pos
                    limit = best * max_growth
                elif m._live > limit:
                    break
            while pos > lower:
                sess.swap(pos - 1)
                pos -= 1
                if m._live < best:
                    best = m._live
                    best_pos = pos
                    limit = best * max_growth
                elif m._live > limit and pos <= best_pos:
                    break
            while pos < best_pos:
                sess.swap(pos)
                pos += 1
            while pos > best_pos:
                sess.swap(pos - 1)
                pos -= 1
        m.reorder_runs += 1
        return before - m._live
    finally:
        _reorder_finish(m, state)


def restore_order(manager: BddManager, lower: int = 0,
                  upper: Optional[int] = None) -> int:
    """Bubble levels ``[lower, upper]`` back to sorted-variable-id order.

    After this, ``iter_models`` over any subset of the range's
    variables enumerates in id order again (its precondition).  Returns
    the number of swaps performed.
    """
    m = manager
    if upper is None:
        upper = m.num_vars - 1
    if upper <= lower:
        return 0
    ids = sorted(m._var_at_level[level] for level in range(lower, upper + 1))
    if all(m._level_of_var[v] == pos
           for pos, v in zip(range(lower, upper + 1), ids)):
        return 0
    state = _reorder_scope(m)
    swaps0 = m.reorder_swaps
    try:
        sess = _SiftSession(m)
        for pos, v in zip(range(lower, upper + 1), ids):
            level = m._level_of_var[v]
            while level > pos:
                sess.swap(level - 1)
                level -= 1
        return m.reorder_swaps - swaps0
    finally:
        _reorder_finish(m, state)


def restore_block_order(manager: BddManager, lower: int = 0,
                        upper: Optional[int] = None) -> int:
    """Alias of :func:`restore_order` named for block-constrained use."""
    return restore_order(manager, lower, upper)


def rebuild_with_order(source: BddManager, roots: Sequence[int],
                       order: Sequence[int]) -> Tuple[BddManager, List[int]]:
    """Rebuild functions in a fresh manager under a new variable order.

    ``order[i]`` is the source-variable index placed at position ``i`` of
    the new order.  Returns the new manager and the translated roots.
    """
    if sorted(order) != list(range(source.num_vars)):
        raise ValueError("order must be a permutation of all source variables")
    target = BddManager(len(order),
                        var_names=[source.var_name(v) for v in order])
    new_index = {src: i for i, src in enumerate(order)}
    cache: Dict[int, int] = {FALSE: FALSE}

    def translate(node: int) -> int:
        # Translation commutes with negation, so cache on the regular
        # edge only: a function and its complement share one traversal.
        comp = node & 1
        node ^= comp
        cached = cache.get(node)
        if cached is None:
            var = target.var(new_index[source.top_var(node)])
            cached = target.ite(var,
                                translate(source.high(node)),
                                translate(source.low(node)))
            cache[node] = cached
        return cached ^ comp

    return target, [translate(r) for r in roots]


def best_of_orders(source: BddManager, root: int,
                   orders: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], int]:
    """Try candidate orders and return ``(best_order, node_count)``.

    Node counts are for the rebuilt root only, so the comparison is not
    polluted by other functions living in the source manager.
    """
    if not orders:
        raise ValueError("need at least one candidate order")
    best_order: Tuple[int, ...] = tuple(orders[0])
    best_size = None
    for order in orders:
        manager, (translated,) = rebuild_with_order(source, [root], order)
        size = manager.size(translated)
        if best_size is None or size < best_size:
            best_size = size
            best_order = tuple(order)
    return best_order, best_size
