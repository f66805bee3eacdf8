"""The universal gate ``U_G`` (Definition 2) and cascades of it (Definition 3).

A universal gate takes the ``n`` line signals ``X`` and
``ceil(log2 q)`` gate-select signals ``Y``; under select code ``k < q``
it behaves as gate ``g_k`` of the library, under padding codes
``k >= q`` as the identity.

Every gate type in the library flips its target lines by a Boolean
*delta* of the old line values (see :mod:`repro.core.gates`), so one
universal-gate stage computes::

    new_l = old_l XOR mux(Y; delta_{0,l}, ..., delta_{2^w - 1,l})

a Shannon mux tree over the ``w`` select signals whose leaf for code
``k`` is gate ``g_k``'s delta on line ``l`` (constant 0 for padding
codes and for gates that do not target ``l``), folded one select bit at
a time.  This replaces the v1 sum-of-minterms form ``OR_k (sel_k AND
delta_{k,l})``: the mux tree *shares* the select-decoding structure
across all ``q`` gate codes instead of building one ``w``-literal
minterm conjunction per code, and equal adjacent leaves collapse for
free at every tree level (hash-consing makes the sharing literal in the
BDD algebra).  Padding codes contribute constant-0 leaves, giving the
identity behaviour for free.

For the pure-MCT library the mux collapses *exactly* into a product.
:func:`repro.core.library.mct_gates` lays codes out as ``k = t *
2**(n-1) + m`` where ``t`` is the target line and bit ``j`` of ``m``
puts the ``j``-th non-target line in the control set.  A mux whose leaf
at subset-index ``m`` is the conjunction ``AND_{j in m} F_j`` satisfies
the identity::

    mux(y_0..y_{w'-1}; AND over subset) = AND_j (NOT y_j OR F_j)

(per induction on ``w'``: ``ite(y, F AND P, P) = P AND (NOT y OR F)``),
so the whole delta becomes::

    delta_l = [Y_high = l] AND  AND_j (NOT y_j OR old_{others_l[j]})

— about ``w`` constant-size operations per line instead of a
``2**w``-leaf tree.  :func:`universal_gate_stage` detects that layout
structurally and takes the factored path; every other library falls
back to the generic mux tree.  Both forms denote the same function, so
on the canonical BDD algebra they return identical edges.

The construction is algebra-generic: the same function builds BDDs
(Section 5.2), Tseitin-ready expression DAGs (Sections 4/5.1) and plain
Boolean evaluations for testing, depending on the :class:`Algebra`
passed in.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

from repro.core.gates import Toffoli
from repro.core.library import GateLibrary

__all__ = ["Algebra", "BoolAlgebra", "BddAlgebra", "ExprAlgebra",
           "universal_gate_stage", "select_code_bits",
           "canonical_select_order", "decode_selection"]


class Algebra:
    """Boolean operations over some signal type.

    Also satisfies the :class:`repro.core.gates.SymbolicOps` protocol
    (``true``, ``conj``, ``xor``), so gate deltas can be built directly.
    """

    true = None
    false = None

    def conj(self, signals: Iterable) -> object:
        raise NotImplementedError

    def disj(self, signals: Iterable) -> object:
        raise NotImplementedError

    def xor(self, a, b):
        raise NotImplementedError

    def not_(self, a):
        raise NotImplementedError

    def ite(self, s, a, b):
        """``a`` when ``s`` holds, else ``b``.

        The generic form expands to ``(s AND a) OR (NOT s AND b)``;
        algebras with a native if-then-else (BDDs) override it so the
        mux tree of :func:`universal_gate_stage` hits the manager's
        tagged ITE cache directly.
        """
        return self.disj([self.conj([s, a]), self.conj([self.not_(s), b])])


class BoolAlgebra(Algebra):
    """Concrete Booleans; used to simulate the universal gate in tests."""

    true = True
    false = False

    def conj(self, signals: Iterable) -> bool:
        return all(signals)

    def disj(self, signals: Iterable) -> bool:
        return any(signals)

    def xor(self, a: bool, b: bool) -> bool:
        return bool(a) != bool(b)

    def not_(self, a: bool) -> bool:
        return not a

    def ite(self, s: bool, a: bool, b: bool) -> bool:
        return a if s else b


class BddAlgebra(Algebra):
    """Signals are node ids of a :class:`~repro.bdd.BddManager`."""

    def __init__(self, manager):
        self.manager = manager
        self.true = 1
        self.false = 0

    def conj(self, signals: Iterable[int]) -> int:
        return self.manager.conj(signals)

    def disj(self, signals: Iterable[int]) -> int:
        return self.manager.disj(signals)

    def xor(self, a: int, b: int) -> int:
        return self.manager.xor(a, b)

    def not_(self, a: int) -> int:
        return self.manager.not_(a)

    def ite(self, s: int, a: int, b: int) -> int:
        return self.manager.ite(s, a, b)


class ExprAlgebra(Algebra):
    """Signals are :class:`~repro.sat.expr.Expr` nodes of a builder."""

    def __init__(self, builder):
        self.builder = builder
        self.true = builder.true
        self.false = builder.false

    def conj(self, signals: Iterable) -> object:
        return self.builder.and_(list(signals))

    def disj(self, signals: Iterable) -> object:
        return self.builder.or_(list(signals))

    def xor(self, a, b):
        return self.builder.xor(a, b)

    def not_(self, a):
        return self.builder.not_(a)


def select_code_bits(code: int, width: int) -> List[bool]:
    """LSB-first bit decomposition of a select code."""
    return [bool((code >> j) & 1) for j in range(width)]


def universal_gate_stage(lines: Sequence, select: Sequence,
                         library: GateLibrary, algebra: Algebra,
                         tick: Callable[[], None] = None) -> List:
    """Apply one universal gate to symbolic line signals.

    ``lines``   — current signals of the ``n`` circuit lines,
    ``select``  — the ``select_bits()`` gate-select signals (LSB first),
    ``tick``    — optional callback invoked once per library gate, letting
                  callers enforce deadlines during long BDD builds;
    returns the ``n`` output signals.
    """
    n = library.n_lines
    width = library.select_bits()
    if len(lines) != n:
        raise ValueError(f"expected {n} line signals, got {len(lines)}")
    if len(select) != width:
        raise ValueError(f"expected {width} select signals, got {len(select)}")
    others_per_target = _mct_bitmask_layout(library)
    if others_per_target is not None:
        return _factored_mct_stage(lines, select, library, algebra,
                                   others_per_target, tick)
    return _mux_tree_stage(lines, select, library, algebra, tick)


def _mux_tree_stage(lines: Sequence, select: Sequence, library: GateLibrary,
                    algebra: Algebra, tick: Callable[[], None]) -> List:
    """Generic path: Shannon mux tree over all ``2**w`` delta leaves."""
    n = library.n_lines
    width = library.select_bits()
    # Leaf table: per line, the delta of each gate code (padding codes
    # and untargeted lines keep the constant-0 leaf).
    padded = 1 << width
    leaves: List[List] = [[algebra.false] * padded for _ in range(n)]
    for code, gate in enumerate(library):
        if tick is not None:
            tick()
        for line, delta in gate.symbolic_deltas(lines, algebra).items():
            leaves[line][code] = delta
    # Fold the mux tree LSB-first: adjacent codes differ in select bit 0,
    # so each pass halves the level, sharing the decode structure across
    # all codes.  Equal siblings short-circuit inside algebra.ite.
    outputs: List = []
    for l in range(n):
        level = leaves[l]
        for j in range(width):
            level = [level[2 * i] if level[2 * i] == level[2 * i + 1]
                     else algebra.ite(select[j], level[2 * i + 1], level[2 * i])
                     for i in range(len(level) // 2)]
        outputs.append(algebra.xor(lines[l], level[0]))
    return outputs


def _mct_bitmask_layout(library: GateLibrary) -> Optional[List[List[int]]]:
    """Detect the bitmask-ordered pure-MCT code layout.

    Returns the per-target lists of non-target lines when gate code
    ``t * 2**(n-1) + m`` is exactly ``Toffoli(target=t,
    controls={others_t[j] : bit j of m set})`` with no negative
    controls; ``None`` for any other library.  The check is structural
    (O(q * n)), so hand-built libraries that happen to match still get
    the fast path.
    """
    n = library.n_lines
    k = n - 1
    if len(library) != n << k:
        return None
    others_per_target = [[l for l in range(n) if l != t] for t in range(n)]
    for code, gate in enumerate(library):
        if type(gate) is not Toffoli or gate.negative_controls:
            return None
        target, mask = code >> k, code & ((1 << k) - 1)
        others = others_per_target[target]
        if gate.targets != (target,):
            return None
        if gate.controls != frozenset(others[j] for j in range(k)
                                      if (mask >> j) & 1):
            return None
    return others_per_target


def _factored_mct_stage(lines: Sequence, select: Sequence,
                        library: GateLibrary, algebra: Algebra,
                        others_per_target: List[List[int]],
                        tick: Callable[[], None]) -> List:
    """Product-form universal MCT gate (see the module docstring).

    ``delta_l = [Y_high = l] AND AND_j (NOT y_j OR old_{others_l[j]})``
    — the exact collapse of the mux tree under the bitmask code layout.
    Padding codes (``Y_high >= n``) match no line's decode literal, so
    they act as the identity without any explicit leaves.
    """
    n = library.n_lines
    k = n - 1
    width = library.select_bits()
    outputs: List = []
    for l in range(n):
        if tick is not None:
            # Preserve the tick-per-gate contract: line l's block of the
            # code space holds the 2**k gates targeting it.
            for _ in range(1 << k):
                tick()
        factors: List = []
        for b in range(k, width):
            factors.append(select[b] if (l >> (b - k)) & 1
                           else algebra.not_(select[b]))
        for j, other in enumerate(others_per_target[l]):
            factors.append(algebra.disj([algebra.not_(select[j]),
                                         lines[other]]))
        outputs.append(algebra.xor(lines[l], algebra.conj(factors)))
    return outputs


def canonical_select_order(select_blocks: Sequence[Sequence[int]]) -> List[int]:
    """Flatten per-position select blocks into a lexmin priority order.

    Position-major, most-significant bit first within each block, so
    minimizing a model lexicographically over the returned list (see
    :func:`repro.sat.incremental.lexmin_model`) yields the smallest
    gate-code sequence among all realizing cascades: earlier cascade
    positions dominate, and within a position the code value itself is
    minimized.

    This ordering is what makes the warm (incremental) and cold
    (scratch) solver paths return the *same* circuit: the minimum
    depends only on the formula's model set, not on solver history.
    """
    return [var for block in select_blocks for var in reversed(list(block))]


def decode_selection(codes: Sequence[int], library: GateLibrary):
    """Map per-position select codes to gates; padding codes map to None."""
    gates = []
    for code in codes:
        if code < library.size():
            gates.append(library[code])
        else:
            gates.append(None)  # identity padding
    return gates
