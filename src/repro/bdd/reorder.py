"""Variable-order experiments for BDDs: rebuilds into a fresh manager.

The paper fixes the order "X before Y" and notes that the opposite order
makes the ``F_d`` BDD enumerate *every* function synthesizable with at
most ``d`` gates — an exponential blow-up.  :func:`rebuild_with_order` /
:func:`best_of_orders` measure that claim by rebuilding into a fresh
manager under another order.  The manager itself never reorders: a
variable's level is its creation index.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.bdd.manager import FALSE, BddManager

__all__ = ["rebuild_with_order", "best_of_orders"]


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
