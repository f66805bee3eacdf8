"""A reduced ordered binary decision diagram (ROBDD) package, v3.

Packed-table core.  v2 (complement edges, op-tagged normalized caches)
stored nodes in Python lists-of-ints
and keyed the unique/computed tables with big packed integers in dicts;
every node cost ~200-300 bytes across the list slots, the int objects
and the dict entries, and every apply step paid a Python function call.
v3 keeps v2's semantics and edge encoding but re-architects the store
the way CUDD lays it out:

**Packed node columns.**  Node fields live in three ``array.array``
columns — ``_var`` (``'i'``: the node's *level*; ``-1`` terminal,
``-2`` free) and ``_lo``/``_hi`` (``'q'``: child edges) — 20 bytes per
node, no per-node Python objects.  An *edge* is still
``(node_index << 1) | complement``; FALSE is ``0``, TRUE ``1``; a
stored node's high edge is never complemented.

**Open-addressed flat tables.**  The unique table is an ``array('q')``
of node indices (0 = empty slot), power-of-two sized with linear
probing; keys are recomputed from the columns on probe, so equality is
a field-by-field compare — structurally collision-free at any edge
width, unlike v2's ``(var << 64) | (lo << 32) | hi`` packing whose
fields silently wrap past 2**32 edges.  The AND/XOR/ITE computed cache
is four parallel ``array('q')`` columns (key1/key2/key3/result),
direct-mapped and lossy, invalidated in O(1) by bumping a generation
tag folded into key2 — no dict, no per-entry key objects.  Quantify
and restrict keep a dict cache (quantifier keys carry arbitrary-precision
level masks that do not fit a fixed 64-bit word); it is cleared in
place on invalidation.

**Iterative apply loops.**  ``and_``/``xor``/``ite``/``_quantify``
run on explicit stacks instead of Python recursion:
no per-node call overhead, no manager-scoped ``setrecursionlimit``
bumping.  Pending frames keep the raw operand edges of every
outstanding cache store on the stack so the garbage collector (below)
can treat in-flight operations as roots.

**Mark-and-sweep GC and an external-reference protocol.**  Callers
``protect``/``unprotect`` (or use the :meth:`protected` scope) the
edges they hold across operations; :meth:`gc` marks from those
references, explicit extra roots and the conservative scan of active
operation stacks, then threads dead nodes onto a free list, rebuilds
the unique table and invalidates the computed caches.  Edges survive
a :meth:`gc` unchanged — no re-rooting — so it is the one reclaim path:
the synthesis engine calls it between depths and, with a threshold,
between cascade stages.
Auto-GC (``enable_auto_gc``) triggers from the allocator under a node
threshold; it is off by default because callers must hold only
protected (or argument/stack-reachable) edges across allocating calls
while it is on.

**Native kernel.**  The flat tables are plain C-layout buffers, and
``repro.bdd.tables`` compiles (via cffi + the system C compiler, when
present) a small kernel that runs the AND/XOR/ITE recursions directly
over them — same tables, same hash functions, same normalization, so
Python and C interoperate entry-for-entry.  The kernel allocates only
from a pre-extended free list and pauses cooperatively (budget
exhausted, free list empty, table at load limit) so growth, GC and the
allocation tick stay under Python control.  The upkeep those pauses
trigger (table doubling and rebuild, free-list threading, the GC mark
and sweep) also runs as kernel loops, called from the same Python
methods that decide when to run them.  Without a compiler the
pure-Python loops below carry identical semantics.

**Levels vs variable ids.**  v2 equated a variable's id with its order
position.  Sifting-based reordering (``repro.bdd.reorder``) permutes
levels at runtime, so v3 separates them: ``_var`` stores levels, and
``_level_of_var``/``_var_at_level`` translate at the public API
boundary (``top_var``, ``support``, ``evaluate``, model iteration,
...).  Public semantics are unchanged — variables are still identified
by their creation index.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from .tables import load_kernel

__all__ = ["BddManager", "FALSE", "TRUE"]

FALSE = 0
TRUE = 1

# Dict-cache operator tags (quantify and restrict share one dict; the
# tag keeps their keys disjoint).  The flat computed cache uses the
# 2-bit in-key opcodes _C_AND/_C_XOR/_C_ITE instead.
_OP_EXISTS = 3
_OP_FORALL = 4
_OP_RESTRICT0 = 5
_OP_RESTRICT1 = 6

# Flat-cache opcodes, folded into key1 as (f << 2) | op.  Nonzero, so a
# zeroed slot can never match a probe.
_C_AND = 1
_C_XOR = 2
_C_ITE = 3

# Multiplicative hash constants (odd primes; tables are power-of-two).
_UH1 = 10000019
_UH2 = 8388617
_CH1 = 40503
_CH2 = 10000019
_CH3 = 97

_GEN_MASK = 0xFFFF
_MIN_UTAB = 1 << 12
_MAX_CACHE = 1 << 20


class BddManager:
    """Shared ROBDD store with flat unique/computed tables and GC."""

    def __init__(self, num_vars: int = 0, var_names: Optional[Sequence[str]] = None,
                 use_kernel: Optional[bool] = None):
        # Node columns indexed by node index (edge >> 1); index 0 is the
        # terminal.  _var holds the LEVEL (-1 terminal, -2 free node).
        self._var = array("i", (-1,))
        self._lo = array("q", (FALSE,))
        self._hi = array("q", (FALSE,))
        self._free = 0          # free-list head (node index; 0 = empty),
                                # threaded through _lo of free nodes
        self._live = 1          # live node count, including the terminal
        # Unique table: open-addressed node indices, 0 = empty.
        self._usize = _MIN_UTAB
        self._umask = self._usize - 1
        self._utab = array("i", (0,)) * self._usize
        self._ucount = 0
        # Flat computed cache (AND/XOR/ITE), direct-mapped and lossy.
        self._csize = _MIN_UTAB
        self._cmask = self._csize - 1
        self._alloc_cache(self._csize)
        self._cgen = 1          # generation tag, 1.._GEN_MASK
        self._centries = 0
        self._cmisses = 0       # cumulative, counted at store time
        # Dict cache for quantify/restrict (variable-width keys).
        self._quant_cache: Dict[object, int] = {}
        # Table version: bumped whenever _utab or the cache arrays are
        # replaced or the generation changes; in-flight loops compare it
        # to refresh their local bindings.
        self._tver = 0
        # Variable order.  Levels are order positions (0 topmost); ids
        # are creation indices.  Identity permutation until reordering.
        self._names: List[str] = []
        self._level_of_var = array("i")
        self._var_at_level = array("i")
        self.num_vars = 0
        # External references (edge -> refcount) and GC state.
        self._refs: Dict[int, int] = {}
        self._gc_enabled = False
        self._gc_threshold = 1 << 18
        self._active_stacks: List[list] = []
        # Optional node-allocation tick: callers (the synthesis engines'
        # deadline guard) register a callback fired every ``interval``
        # fresh node allocations.
        self._alloc_tick: Optional[Callable[[], None]] = None
        self._tick_interval = 4096
        self._tick_countdown = 4096
        # Instrumentation counters (see stats()).  Cumulative over the
        # manager's lifetime; cache misses are counted where the entry
        # is stored.
        self.ite_cache_hits = 0
        self.quant_calls = 0
        self.quant_cache_hits = 0
        self.cache_clears = 0
        self.peak_nodes = 1
        self.gc_runs = 0
        self.gc_reclaimed = 0
        self.table_grows = 0
        self.reorder_runs = 0
        self.reorder_swaps = 0
        # Auto-reorder trigger state (see enable_auto_reorder).
        self._reorder_enabled = False
        self._reorder_bounds: Tuple[int, Optional[int]] = (0, None)
        self._reorder_ratio = 4
        self._reorder_min = 1 << 13
        self._reorder_next = 1 << 13
        # Native kernel (see tables.py).  ``use_kernel=None`` attaches
        # it when available; False forces the pure-Python loops (the
        # reference semantics either way).  Buffer views into the flat
        # tables are cached between kernel calls and must be dropped
        # before any column resize (arrays cannot grow while exported).
        self._kffi = self._klib = self._kctx = None
        self._kbufs: Optional[tuple] = None
        self._kbufs_tver = -1
        if use_kernel or use_kernel is None:
            ffi, lib = load_kernel()
            if ffi is not None:
                self._kffi = ffi
                self._klib = lib
                self._kctx = ffi.new("BddCtx *")
            elif use_kernel:
                raise RuntimeError("native BDD kernel unavailable "
                                   "(no cffi/C compiler, or REPRO_BDD_KERNEL=0)")
        for i in range(num_vars):
            name = var_names[i] if var_names else None
            self.add_var(name)

    # -- variables ---------------------------------------------------------------

    def add_var(self, name: Optional[str] = None) -> int:
        """Append a new variable at the bottom of the order; returns its index."""
        index = self.num_vars
        self.num_vars += 1
        self._names.append(name if name is not None else f"v{index}")
        self._level_of_var.append(index)
        self._var_at_level.append(index)
        return index

    def var_name(self, index: int) -> str:
        return self._names[index]

    def var(self, index: int) -> int:
        """The BDD of the single variable ``index``."""
        if not 0 <= index < self.num_vars:
            raise ValueError(f"unknown variable {index}")
        return self._mk_level(self._level_of_var[index], FALSE, TRUE)

    def nvar(self, index: int) -> int:
        """The BDD of the negated variable."""
        if not 0 <= index < self.num_vars:
            raise ValueError(f"unknown variable {index}")
        return self._mk_level(self._level_of_var[index], TRUE, FALSE)

    def literal(self, index: int, positive: bool) -> int:
        return self.var(index) if positive else self.nvar(index)

    # -- node structure ------------------------------------------------------------

    def is_terminal(self, node: int) -> bool:
        return node <= 1

    def is_complement(self, node: int) -> bool:
        """Does this edge carry the complement bit?  (TRUE does: ¬FALSE.)"""
        return bool(node & 1)

    def regular(self, node: int) -> int:
        """The edge with the complement bit cleared."""
        return node & -2

    def top_var(self, node: int) -> int:
        """Variable id of the node's top variable (terminals raise)."""
        if node <= 1:
            raise ValueError("terminals have no variable")
        return self._var_at_level[self._var[node >> 1]]

    def low(self, node: int) -> int:
        """Low cofactor edge, with the incoming complement bit applied."""
        return self._lo[node >> 1] ^ (node & 1)

    def high(self, node: int) -> int:
        """High cofactor edge, with the incoming complement bit applied."""
        return self._hi[node >> 1] ^ (node & 1)

    def _level(self, node: int) -> int:
        """Level used for ordering; terminals sink below every variable."""
        return self._var[node >> 1] if node > 1 else self.num_vars

    # -- allocator / tables ----------------------------------------------------------

    def _mk(self, var: int, lo: int, hi: int) -> int:
        """Hash-consed edge constructor taking a *variable id*."""
        return self._mk_level(self._level_of_var[var], lo, hi)

    def _mk_level(self, level: int, lo: int, hi: int) -> int:
        """Hash-consed edge constructor taking a *level*.

        Enforces both ROBDD reduction rules plus the complement-edge
        normalization: the stored high edge is always regular — when it
        is not, the node is built from the complemented cofactors and
        the complement moves to the returned edge.
        """
        if lo == hi:
            return lo
        comp = hi & 1
        if comp:
            lo ^= 1
            hi ^= 1
        utab = self._utab
        umask = self._umask
        _var = self._var
        _lo = self._lo
        _hi = self._hi
        slot = (lo * _UH1 + hi * _UH2 + level) & umask
        while True:
            n = utab[slot]
            if n == 0:
                n = self._fresh(level, lo, hi, slot)
                return (n << 1) | comp
            if _lo[n] == lo and _hi[n] == hi and _var[n] == level:
                return (n << 1) | comp
            slot = (slot + 1) & umask

    def _fresh(self, level: int, lo: int, hi: int, slot: int) -> int:
        """Allocate a node at ``slot`` of the unique table (a miss).

        May run auto-GC first (which rebuilds the table — the slot is
        re-probed); may grow the table after; fires the allocation tick
        last, once the node is fully consistent (the tick may raise).
        """
        if self._gc_enabled and self._live >= self._gc_threshold:
            self.gc((lo, hi))
            utab = self._utab
            umask = self._umask
            slot = (lo * _UH1 + hi * _UH2 + level) & umask
            while utab[slot]:
                slot = (slot + 1) & umask
        node = self._free
        if not node and self._klib is not None:
            # The kernel path keeps cached (resize-locking) buffer
            # views into the columns, so allocation always goes through
            # the free list; extending releases the views first.
            self._extend_free()
            node = self._free
        if node:
            self._free = self._lo[node]
            self._var[node] = level
            self._lo[node] = lo
            self._hi[node] = hi
        else:
            node = len(self._var)
            self._var.append(level)
            self._lo.append(lo)
            self._hi.append(hi)
        self._utab[slot] = node
        self._ucount += 1
        self._live += 1
        if (self._ucount << 1) > self._umask:
            self._grow_utab()
        if self._alloc_tick is not None:
            self._tick_countdown -= 1
            if self._tick_countdown <= 0:
                self._tick_countdown = self._tick_interval
                self._alloc_tick()
        return node

    def _kcols(self) -> tuple:
        """Kernel pointers to the node columns, for one upkeep call.

        Each pointer exports its array's buffer until it is dropped, so
        callers pass them straight into the call and keep no reference.
        """
        from_buffer = self._kffi.from_buffer
        return (from_buffer("int32_t[]", self._var),
                from_buffer("int64_t[]", self._lo),
                from_buffer("int64_t[]", self._hi))

    def _grow_utab(self) -> None:
        size = self._usize << 1
        mask = size - 1
        new = array("i", (0,)) * size
        if self._klib is not None:
            from_buffer = self._kffi.from_buffer
            self._klib.bdd_rehash(*self._kcols(),
                                  from_buffer("int32_t[]", self._utab),
                                  self._usize,
                                  from_buffer("int32_t[]", new), mask)
        else:
            _var = self._var
            _lo = self._lo
            _hi = self._hi
            for n in self._utab:
                if n:
                    slot = (_lo[n] * _UH1 + _hi[n] * _UH2 + _var[n]) & mask
                    while new[slot]:
                        slot = (slot + 1) & mask
                    new[slot] = n
        self._utab = new
        self._usize = size
        self._umask = mask
        self.table_grows += 1
        self._tver += 1
        self._maybe_grow_cache()

    def _rebuild_utab(self) -> None:
        """Rebuild the unique table from the live columns (after GC/reorder)."""
        size = _MIN_UTAB
        need = self._live << 1
        while size < need:
            size <<= 1
        mask = size - 1
        new = array("i", (0,)) * size
        if self._klib is not None:
            self._klib.bdd_rebuild(*self._kcols(), len(self._var),
                                   self._kffi.from_buffer("int32_t[]", new),
                                   mask)
        else:
            _var = self._var
            _lo = self._lo
            _hi = self._hi
            for n in range(1, len(_var)):
                if _var[n] >= 0:
                    slot = (_lo[n] * _UH1 + _hi[n] * _UH2 + _var[n]) & mask
                    while new[slot]:
                        slot = (slot + 1) & mask
                    new[slot] = n
        self._utab = new
        self._usize = size
        self._umask = mask
        self._ucount = self._live - 1
        self._tver += 1
        self._maybe_grow_cache()

    def _utab_delete(self, n: int) -> None:
        """Remove node ``n`` from the unique table.

        Linear probing needs backward-shift deletion: after emptying the
        slot, every entry in the rest of the probe cluster that cannot
        reach its home slot past the hole is shifted back into it, so no
        probe sequence is ever broken.  Only the reordering layer
        deletes — nodes are mutated exclusively while out of the table,
        which keeps the home-slot computation below valid for every
        entry still in it.
        """
        utab = self._utab
        umask = self._umask
        _var = self._var
        _lo = self._lo
        _hi = self._hi
        slot = (_lo[n] * _UH1 + _hi[n] * _UH2 + _var[n]) & umask
        while utab[slot] != n:
            slot = (slot + 1) & umask
        utab[slot] = 0
        self._ucount -= 1
        hole = slot
        j = slot
        while True:
            j = (j + 1) & umask
            m = utab[j]
            if not m:
                break
            home = (_lo[m] * _UH1 + _hi[m] * _UH2 + _var[m]) & umask
            if ((j - home) & umask) >= ((j - hole) & umask):
                utab[hole] = m
                utab[j] = 0
                hole = j

    def _utab_insert(self, n: int) -> None:
        """Re-insert an existing node after reordering mutated it."""
        utab = self._utab
        umask = self._umask
        slot = (self._lo[n] * _UH1 + self._hi[n] * _UH2 +
                self._var[n]) & umask
        while utab[slot]:
            slot = (slot + 1) & umask
        utab[slot] = n
        self._ucount += 1

    def _maybe_grow_cache(self) -> None:
        """Size the computed cache at half the unique table, capped."""
        target = self._usize >> 1
        if target > _MAX_CACHE:
            target = _MAX_CACHE
        if target <= self._csize:
            return
        self._csize = target
        self._cmask = target - 1
        self._alloc_cache(target)
        self._centries = 0
        self._tver += 1

    def _alloc_cache(self, size: int) -> None:
        """Replace the four computed-cache columns with zeroed ones."""
        self._ck1 = array("q", (0,)) * size
        self._ck2 = array("q", (0,)) * size
        self._ck3 = array("q", (0,)) * size
        self._cres = array("q", (0,)) * size

    def _bump_gen(self) -> None:
        """Invalidate the flat computed cache in O(1)."""
        gen = self._cgen + 1
        if gen > _GEN_MASK:
            # Generation space exhausted: physically zero the tables so
            # wrapped tags cannot alias old entries.
            self._alloc_cache(self._csize)
            gen = 1
        self._cgen = gen
        self._centries = 0
        self._tver += 1

    def set_alloc_tick(self, callback: Optional[Callable[[], None]],
                       interval: int = 4096) -> None:
        """Invoke ``callback`` every ``interval`` fresh node allocations.

        The synthesis engines install their deadline check here so a
        ``time_limit`` can interrupt a single large apply run (the
        callback may raise).  ``None`` uninstalls.
        """
        if interval <= 0:
            raise ValueError("tick interval must be positive")
        self._alloc_tick = callback
        self._tick_interval = interval
        self._tick_countdown = interval

    def node_count(self) -> int:
        """Number of live nodes in the store (including the terminal)."""
        return self._live

    def size(self, node: int) -> int:
        """Number of nodes reachable from ``node`` (including the terminal).

        A function and its complement share structure, so ``size(f) ==
        size(not_(f))`` by construction.
        """
        seen: Set[int] = set()
        stack = [node >> 1]
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            if index:
                stack.append(self._lo[index] >> 1)
                stack.append(self._hi[index] >> 1)
        return len(seen)

    # -- the apply layer ------------------------------------------------------------
    #
    # Three explicit-stack loops share the unique table and the flat
    # computed cache: and_ (commutative, sorted keys), xor (commutative,
    # sorted keys, complements factored out) and the general ite.
    # or/implies/xnor/not_ are O(1) rewrites into those three.
    #
    # Frame protocol (one list ``st`` of ints, one value list ``out``,
    # both registered in _active_stacks so GC can mark in-flight
    # operands): a popped value >= 0 is a task operand; negative values
    # are reduce tags whose frames carry the raw operand edges of the
    # pending cache store — both lists double as GC root sets, which is
    # what makes mid-operation collection safe.  Locals binding the
    # flat tables are refreshed whenever _tver changes (GC, growth or a
    # generation bump replaced them).

    def and_(self, f: int, g: int) -> int:
        if self._klib is not None:
            return self._kernel_op(self._klib.bdd_and, f, g)
        return self._and_py(f, g)

    def xor(self, f: int, g: int) -> int:
        if self._klib is not None:
            return self._kernel_op(self._klib.bdd_xor, f, g)
        return self._xor_py(f, g)

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``(f AND g) OR (NOT f AND h)``."""
        if self._klib is not None:
            return self._kernel_op(self._klib.bdd_ite, f, g, h)
        return self._ite_py(f, g, h)

    def _extend_free(self, count: Optional[int] = None) -> None:
        """Thread ``count`` fresh slots onto the free list.

        The native kernel allocates exclusively from the free list (it
        never appends), so its glue pre-extends capacity here, and so
        does the Python allocator while the kernel is attached; a
        manager without the kernel appends instead and never lands
        here.  Cached kernel buffer views are dropped first — an
        exported array cannot resize.
        """
        if count is None:
            count = self._live >> 2
            if count < 4096:
                count = 4096
        self._kbufs = None
        base = len(self._var)
        if base + count > 0x7FFFFFFF:
            # The int32 unique table addresses at most 2**31 nodes
            # (~43 GB of columns) — fail loudly, never wrap.
            raise MemoryError("BDD node store exceeds 2**31 nodes")
        self._var.extend(array("i", (-2,)) * count)
        self._hi.extend(array("q", (0,)) * count)
        self._lo.extend(array("q", (0,)) * count)
        self._klib.bdd_chain(self._kffi.from_buffer("int64_t[]", self._lo),
                             base, count, self._free)
        self._free = base

    def _kernel_bind(self) -> None:
        """(Re)bind the kernel context to the current flat tables."""
        ffi = self._kffi
        ctx = self._kctx
        bufs = (ffi.from_buffer("int32_t[]", self._var),
                ffi.from_buffer("int64_t[]", self._lo),
                ffi.from_buffer("int64_t[]", self._hi),
                ffi.from_buffer("int32_t[]", self._utab),
                ffi.from_buffer("int64_t[]", self._ck1),
                ffi.from_buffer("int64_t[]", self._ck2),
                ffi.from_buffer("int64_t[]", self._ck3),
                ffi.from_buffer("int64_t[]", self._cres))
        (ctx.var, ctx.lo, ctx.hi, ctx.utab,
         ctx.ck1, ctx.ck2, ctx.ck3, ctx.cres) = bufs
        ctx.umask = self._umask
        ctx.cmask = self._cmask
        ctx.gen = self._cgen
        self._kbufs = bufs
        self._kbufs_tver = self._tver

    def _kernel_op(self, fn, *args: int) -> int:
        """Run one kernel apply call, servicing cooperative pauses.

        The kernel returns -1 when it needs Python: the allocation
        budget ran out (deadline tick due, or the auto-GC threshold
        crossed), the free list emptied, or the unique table hit its
        load limit.  Each pause is serviced with the tables in a
        consistent state and the call re-issued; everything the
        interrupted run computed is already in the computed cache, so
        the replay skips straight back to where it paused.
        """
        ctx = self._kctx
        while True:
            if (self._ucount << 1) > self._umask:
                self._grow_utab()
            if self._gc_enabled and self._live >= self._gc_threshold:
                self.gc(args)
            if self._free == 0:
                self._extend_free()
            if self._kbufs is None or self._kbufs_tver != self._tver:
                self._kernel_bind()
            budget = 1 << 60
            if self._alloc_tick is not None:
                budget = self._tick_countdown
            if self._gc_enabled:
                head = self._gc_threshold - self._live
                if head < budget:
                    budget = head
            ctx.freehead = self._free
            ctx.live = self._live
            ctx.ucount = self._ucount
            ctx.centries = self._centries
            ctx.budget = budget
            ctx.hits = 0
            ctx.misses = 0
            ctx.allocs = 0
            r = fn(ctx, *args)
            self._free = ctx.freehead
            self._live = ctx.live
            self._ucount = ctx.ucount
            self._centries = ctx.centries
            self.ite_cache_hits += ctx.hits
            self._cmisses += ctx.misses
            if self._alloc_tick is not None and ctx.allocs:
                self._tick_countdown -= ctx.allocs
                if self._tick_countdown <= 0:
                    self._tick_countdown = self._tick_interval
                    self._alloc_tick()  # may raise; state is consistent
            if r >= 0:
                return r

    def _and_py(self, f: int, g: int) -> int:
        st = [g, f]
        out: List[int] = []
        stacks = self._active_stacks
        stacks.append(st)
        stacks.append(out)
        hits = 0
        misses = 0
        try:
            var = self._var
            lo = self._lo
            hi = self._hi
            utab = self._utab
            umask = self._umask
            ck1 = self._ck1
            ck2 = self._ck2
            cres = self._cres
            cmask = self._cmask
            gen = self._cgen
            tver = self._tver
            while st:
                t = st.pop()
                if t >= 0:
                    f = t
                    g = st.pop()
                    if f == g:
                        out.append(f)
                        continue
                    if f > g:
                        f, g = g, f
                    # After sorting: terminal f, or f/g a complement
                    # pair (ids differing in the low bit only).
                    if f == FALSE:
                        out.append(FALSE)
                        continue
                    if f == TRUE:
                        out.append(g)
                        continue
                    if f ^ g == 1:
                        out.append(FALSE)
                        continue
                    slot = ((f * _CH1) ^ (g * _CH2)) & cmask
                    if ck1[slot] == (f << 2) | _C_AND and \
                            ck2[slot] == (g << 16) | gen:
                        hits += 1
                        out.append(cres[slot])
                        continue
                    fi = f >> 1
                    gi = g >> 1
                    level = level_f = var[fi]
                    level_g = var[gi]
                    if level_g < level:
                        level = level_g
                    if level_f == level:
                        fc = f & 1
                        f0 = lo[fi] ^ fc
                        f1 = hi[fi] ^ fc
                    else:
                        f0 = f1 = f
                    if level_g == level:
                        gc = g & 1
                        g0 = lo[gi] ^ gc
                        g1 = hi[gi] ^ gc
                    else:
                        g0 = g1 = g
                    st.append(g)
                    st.append(f)
                    st.append(level)
                    st.append(-1)
                    st.append(g1)
                    st.append(f1)
                    st.append(g0)
                    st.append(f0)
                else:
                    level = st.pop()
                    f = st.pop()
                    g = st.pop()
                    rhi = out.pop()
                    rlo = out.pop()
                    if rlo == rhi:
                        res = rlo
                    else:
                        comp = rhi & 1
                        if comp:
                            rlo ^= 1
                            rhi ^= 1
                        uslot = (rlo * _UH1 + rhi * _UH2 + level) & umask
                        while True:
                            n = utab[uslot]
                            if n == 0:
                                # Pin the cache-store operands across a
                                # possible GC inside _fresh.
                                st.append(g)
                                st.append(f)
                                n = self._fresh(level, rlo, rhi, uslot)
                                del st[-2:]
                                if tver != self._tver:
                                    utab = self._utab
                                    umask = self._umask
                                    ck1 = self._ck1
                                    ck2 = self._ck2
                                    cres = self._cres
                                    cmask = self._cmask
                                    gen = self._cgen
                                    tver = self._tver
                                break
                            if lo[n] == rlo and hi[n] == rhi and \
                                    var[n] == level:
                                break
                            uslot = (uslot + 1) & umask
                        res = (n << 1) | comp
                    out.append(res)
                    slot = ((f * _CH1) ^ (g * _CH2)) & cmask
                    if (ck2[slot] & _GEN_MASK) != gen:
                        self._centries += 1
                    ck1[slot] = (f << 2) | _C_AND
                    ck2[slot] = (g << 16) | gen
                    cres[slot] = res
                    misses += 1
            return out[0]
        finally:
            stacks.pop()
            stacks.pop()
            self.ite_cache_hits += hits
            self._cmisses += misses

    def _xor_py(self, f: int, g: int) -> int:
        st = [g, f]
        out: List[int] = []
        stacks = self._active_stacks
        stacks.append(st)
        stacks.append(out)
        hits = 0
        misses = 0
        try:
            var = self._var
            lo = self._lo
            hi = self._hi
            utab = self._utab
            umask = self._umask
            ck1 = self._ck1
            ck2 = self._ck2
            cres = self._cres
            cmask = self._cmask
            gen = self._cgen
            tver = self._tver
            while st:
                t = st.pop()
                if t >= 0:
                    f = t
                    g = st.pop()
                    # Complements factor out of XOR entirely: strip
                    # them from both arguments, fold into the result.
                    comp = (f ^ g) & 1
                    f &= -2
                    g &= -2
                    if f == g:
                        out.append(comp)
                        continue
                    if f > g:
                        f, g = g, f
                    if f == FALSE:
                        out.append(g ^ comp)
                        continue
                    slot = ((f * _CH1) ^ (g * _CH2)) & cmask
                    if ck1[slot] == (f << 2) | _C_XOR and \
                            ck2[slot] == (g << 16) | gen:
                        hits += 1
                        out.append(cres[slot] ^ comp)
                        continue
                    fi = f >> 1
                    gi = g >> 1
                    level = level_f = var[fi]
                    level_g = var[gi]
                    if level_g < level:
                        level = level_g
                    # f and g are regular here, so their stored
                    # children are their cofactors directly.
                    if level_f == level:
                        f0 = lo[fi]
                        f1 = hi[fi]
                    else:
                        f0 = f1 = f
                    if level_g == level:
                        g0 = lo[gi]
                        g1 = hi[gi]
                    else:
                        g0 = g1 = g
                    st.append(g)
                    st.append(f)
                    st.append((level << 1) | comp)
                    st.append(-1)
                    st.append(g1)
                    st.append(f1)
                    st.append(g0)
                    st.append(f0)
                else:
                    packed = st.pop()
                    f = st.pop()
                    g = st.pop()
                    level = packed >> 1
                    comp = packed & 1
                    rhi = out.pop()
                    rlo = out.pop()
                    if rlo == rhi:
                        res = rlo
                    else:
                        rcomp = rhi & 1
                        if rcomp:
                            rlo ^= 1
                            rhi ^= 1
                        uslot = (rlo * _UH1 + rhi * _UH2 + level) & umask
                        while True:
                            n = utab[uslot]
                            if n == 0:
                                st.append(g)
                                st.append(f)
                                n = self._fresh(level, rlo, rhi, uslot)
                                del st[-2:]
                                if tver != self._tver:
                                    utab = self._utab
                                    umask = self._umask
                                    ck1 = self._ck1
                                    ck2 = self._ck2
                                    cres = self._cres
                                    cmask = self._cmask
                                    gen = self._cgen
                                    tver = self._tver
                                break
                            if lo[n] == rlo and hi[n] == rhi and \
                                    var[n] == level:
                                break
                            uslot = (uslot + 1) & umask
                        res = (n << 1) | rcomp
                    slot = ((f * _CH1) ^ (g * _CH2)) & cmask
                    if (ck2[slot] & _GEN_MASK) != gen:
                        self._centries += 1
                    ck1[slot] = (f << 2) | _C_XOR
                    ck2[slot] = (g << 16) | gen
                    cres[slot] = res
                    misses += 1
                    out.append(res ^ comp)
            return out[0]
        finally:
            stacks.pop()
            stacks.pop()
            self.ite_cache_hits += hits
            self._cmisses += misses

    def _ite_py(self, f: int, g: int, h: int) -> int:
        st: List[int] = [h, g, f]
        out: List[int] = []
        stacks = self._active_stacks
        stacks.append(st)
        stacks.append(out)
        hits = 0
        misses = 0
        try:
            var = self._var
            lo = self._lo
            hi = self._hi
            utab = self._utab
            umask = self._umask
            ck1 = self._ck1
            ck2 = self._ck2
            ck3 = self._ck3
            cres = self._cres
            cmask = self._cmask
            gen = self._cgen
            tver = self._tver
            while st:
                t = st.pop()
                if t >= 0:
                    f = t
                    g = st.pop()
                    h = st.pop()
                    # Terminal short cuts.
                    if f == TRUE:
                        out.append(g)
                        continue
                    if f == FALSE:
                        out.append(h)
                        continue
                    if g == h:
                        out.append(g)
                        continue
                    # Standard-triple reduction: first argument regular,
                    # selector-repeating branches collapsed.
                    if f & 1:
                        f ^= 1
                        g, h = h, g
                    if g == f:
                        g = TRUE
                    elif g == f ^ 1:
                        g = FALSE
                    if h == f:
                        h = FALSE
                    elif h == f ^ 1:
                        h = TRUE
                    if g == h:
                        out.append(g)
                        continue
                    # Route constant-branch shapes into the tagged
                    # binary ops, where argument normalization buys
                    # more cache sharing.  The nested calls run their
                    # own stacks (ours stays registered for GC) and may
                    # replace the flat tables — refresh afterwards.
                    r = -1
                    if g == TRUE:
                        if h == FALSE:
                            r = f
                        else:
                            r = self.and_(f ^ 1, h ^ 1) ^ 1  # f OR h
                    elif g == FALSE:
                        if h == TRUE:
                            r = f ^ 1
                        else:
                            r = self.and_(f ^ 1, h)  # NOT f AND h
                    elif h == FALSE:
                        r = self.and_(f, g)
                    elif h == TRUE:
                        r = self.and_(f, g ^ 1) ^ 1  # f IMPLIES g
                    elif g == h ^ 1:
                        r = self.xor(f, h)  # ite(f, ¬h, h)
                    if r >= 0:
                        out.append(r)
                        if tver != self._tver:
                            utab = self._utab
                            umask = self._umask
                            ck1 = self._ck1
                            ck2 = self._ck2
                            ck3 = self._ck3
                            cres = self._cres
                            cmask = self._cmask
                            gen = self._cgen
                            tver = self._tver
                        continue
                    # General case; normalize the then-branch regular
                    # so a triple and its complement share one entry.
                    comp = g & 1
                    if comp:
                        g ^= 1
                        h ^= 1
                    slot = ((f * _CH1) ^ (g * _CH2) ^ (h * _CH3)) & cmask
                    if ck1[slot] == (f << 2) | _C_ITE and \
                            ck2[slot] == (g << 16) | gen and \
                            ck3[slot] == h:
                        hits += 1
                        out.append(cres[slot] ^ comp)
                        continue
                    fi = f >> 1
                    gi = g >> 1
                    hi_i = h >> 1
                    level = var[fi]  # all three non-terminal past routing
                    level_g = var[gi]
                    if level_g < level:
                        level = level_g
                    level_h = var[hi_i]
                    if level_h < level:
                        level = level_h
                    if var[fi] == level:
                        f0 = lo[fi]
                        f1 = hi[fi]  # f is regular
                    else:
                        f0 = f1 = f
                    if level_g == level:
                        g0 = lo[gi]
                        g1 = hi[gi]  # g is regular
                    else:
                        g0 = g1 = g
                    if level_h == level:
                        hc = h & 1
                        h0 = lo[hi_i] ^ hc
                        h1 = hi[hi_i] ^ hc
                    else:
                        h0 = h1 = h
                    st.append(h)
                    st.append(g)
                    st.append(f)
                    st.append((level << 1) | comp)
                    st.append(-1)
                    st.append(h1)
                    st.append(g1)
                    st.append(f1)
                    st.append(h0)
                    st.append(g0)
                    st.append(f0)
                else:
                    packed = st.pop()
                    f = st.pop()
                    g = st.pop()
                    h = st.pop()
                    level = packed >> 1
                    comp = packed & 1
                    rhi = out.pop()
                    rlo = out.pop()
                    if rlo == rhi:
                        res = rlo
                    else:
                        rcomp = rhi & 1
                        if rcomp:
                            rlo ^= 1
                            rhi ^= 1
                        uslot = (rlo * _UH1 + rhi * _UH2 + level) & umask
                        while True:
                            n = utab[uslot]
                            if n == 0:
                                st.append(h)
                                st.append(g)
                                st.append(f)
                                n = self._fresh(level, rlo, rhi, uslot)
                                del st[-3:]
                                if tver != self._tver:
                                    utab = self._utab
                                    umask = self._umask
                                    ck1 = self._ck1
                                    ck2 = self._ck2
                                    ck3 = self._ck3
                                    cres = self._cres
                                    cmask = self._cmask
                                    gen = self._cgen
                                    tver = self._tver
                                break
                            if lo[n] == rlo and hi[n] == rhi and \
                                    var[n] == level:
                                break
                            uslot = (uslot + 1) & umask
                        res = (n << 1) | rcomp
                    slot = ((f * _CH1) ^ (g * _CH2) ^ (h * _CH3)) & cmask
                    if (ck2[slot] & _GEN_MASK) != gen:
                        self._centries += 1
                    ck1[slot] = (f << 2) | _C_ITE
                    ck2[slot] = (g << 16) | gen
                    ck3[slot] = h
                    cres[slot] = res
                    misses += 1
                    out.append(res ^ comp)
            return out[0]
        finally:
            stacks.pop()
            stacks.pop()
            self.ite_cache_hits += hits
            self._cmisses += misses

    def _cofactors(self, node: int, level: int) -> Tuple[int, int]:
        if node > 1 and self._var[node >> 1] == level:
            comp = node & 1
            return self._lo[node >> 1] ^ comp, self._hi[node >> 1] ^ comp
        return node, node

    # -- connectives ------------------------------------------------------------------

    def not_(self, f: int) -> int:
        """Negation is a complement-bit flip: O(1), no traversal."""
        return f ^ 1

    def or_(self, f: int, g: int) -> int:
        return self.and_(f ^ 1, g ^ 1) ^ 1

    def xnor(self, f: int, g: int) -> int:
        """Boolean equality — the paper's ``F_d = f`` comparator."""
        return self.xor(f, g) ^ 1

    def implies(self, f: int, g: int) -> int:
        return self.and_(f, g ^ 1) ^ 1

    def conj(self, nodes: Iterable[int]) -> int:
        result = TRUE
        for node in nodes:
            result = self.and_(result, node)
            if result == FALSE:
                return FALSE
        return result

    def disj(self, nodes: Iterable[int]) -> int:
        result = FALSE
        for node in nodes:
            result = self.or_(result, node)
            if result == TRUE:
                return TRUE
        return result

    # -- restriction / composition -------------------------------------------------------

    def restrict(self, f: int, var: int, value: bool) -> int:
        """Cofactor of ``f`` with variable ``var`` fixed to ``value``.

        Recursion depth is bounded by the variable count, so this stays
        a plain recursion; auto-GC is paused for its duration because
        the recursion frames hold unprotected intermediate edges.
        """
        prev = self._gc_enabled
        self._gc_enabled = False
        try:
            return self._restrict_rec(f, self._level_of_var[var], value)
        finally:
            self._gc_enabled = prev

    def _restrict_rec(self, f: int, rlevel: int, value: bool) -> int:
        if f <= 1:
            return f
        comp = f & 1
        f ^= comp
        index = f >> 1
        top = self._var[index]
        if top > rlevel:
            return f ^ comp
        if top == rlevel:
            return (self._hi[index] if value else self._lo[index]) ^ comp
        key = (((f << 20) | rlevel) << 3) | (_OP_RESTRICT1 if value
                                             else _OP_RESTRICT0)
        cached = self._quant_cache.get(key)
        if cached is None:
            cached = self._mk_level(
                top,
                self._restrict_rec(self._lo[index], rlevel, value),
                self._restrict_rec(self._hi[index], rlevel, value))
            self._quant_cache[key] = cached
        return cached ^ comp

    def compose(self, f: int, var: int, g: int) -> int:
        """Substitute BDD ``g`` for variable ``var`` in ``f``."""
        f0 = self.restrict(f, var, False)
        f1 = self.restrict(f, var, True)
        return self.ite(g, f1, f0)

    # -- quantification --------------------------------------------------------------------

    def _var_mask(self, variables: Iterable[int]) -> int:
        """Level bitmask of a variable-id set."""
        level_of = self._level_of_var
        mask = 0
        for v in variables:
            mask |= 1 << level_of[v]
        return mask

    def exists(self, f: int, variables: Iterable[int]) -> int:
        return self._quantify(f, self._var_mask(variables), forall=False)

    def forall(self, f: int, variables: Iterable[int]) -> int:
        """Universal quantification — ``forall x . f = f|x=0 AND f|x=1``.

        This is the operation Section 5.2 applies to the equality BDD
        over all circuit-input variables.
        """
        return self._quantify(f, self._var_mask(variables), forall=True)

    def _quantify(self, f: int, mask: int, forall: bool) -> int:
        """Quantify the level set encoded as ``mask`` out of ``f``.

        Iterative, tag-led frames.  ``ac`` packs the pending result
        complement (bit 0) and the forall flag (bit 1); a complemented
        operand routes through De Morgan duality (``forall x ¬f =
        ¬exists x f``) by flipping both bits, so the dict cache holds
        regular edges only.  Frames carry the raw operand edge so GC
        marking keeps pending cache-store keys alive.
        """
        st: list = [mask, 2 if forall else 0, f]
        out: List[int] = []
        stacks = self._active_stacks
        stacks.append(st)
        stacks.append(out)
        qcalls = 0
        qhits = 0
        try:
            var = self._var
            lo = self._lo
            hi = self._hi
            qcache = self._quant_cache
            while st:
                t = st.pop()
                if t >= 0:
                    f = t
                    ac = st.pop()
                    mask = st.pop()
                    if f <= 1 or not mask:
                        out.append(f ^ (ac & 1))
                        continue
                    if f & 1:
                        f ^= 1
                        ac ^= 3
                    index = f >> 1
                    level = var[index]
                    # Drop quantified levels above the node's top level
                    # (two shifts): they do not occur in f.
                    mask = (mask >> level) << level
                    if not mask:
                        out.append(f ^ (ac & 1))
                        continue
                    qcalls += 1
                    # The mask is arbitrary precision, so it takes the
                    # high bits of the dict key.
                    key = (((mask << 40) | f) << 3) | \
                        (_OP_FORALL if ac & 2 else _OP_EXISTS)
                    cached = qcache.get(key)
                    if cached is not None:
                        qhits += 1
                        out.append(cached ^ (ac & 1))
                        continue
                    st.append(mask)
                    st.append(f)
                    st.append(ac)
                    st.append(key)
                    st.append(-1)
                    st.append(mask)
                    st.append(ac & 2)
                    st.append(lo[index])
                elif t == -1:
                    # After the low recursion: decide how to combine.
                    key = st.pop()
                    ac = st.pop()
                    f = st.pop()
                    mask = st.pop()
                    index = f >> 1
                    level = var[index]
                    rlo = out.pop()
                    if (mask >> level) & 1:
                        # Top level itself quantified: combine the
                        # cofactors, short-circuiting the absorbing
                        # case (FALSE under forall, TRUE under exists).
                        if rlo == (FALSE if ac & 2 else TRUE):
                            qcache[key] = rlo
                            out.append(rlo ^ (ac & 1))
                        else:
                            st.append(f)
                            st.append(rlo)
                            st.append(ac)
                            st.append(key)
                            st.append(-2)
                            st.append(mask)
                            st.append(ac & 2)
                            st.append(hi[index])
                    else:
                        st.append(f)
                        st.append(rlo)
                        st.append(ac)
                        st.append(key)
                        st.append(-3)
                        st.append(mask)
                        st.append(ac & 2)
                        st.append(hi[index])
                elif t == -2:
                    # Combine quantified cofactors with AND/OR.
                    key = st.pop()
                    ac = st.pop()
                    rlo = st.pop()
                    f = st.pop()
                    rhi = out.pop()
                    # Pin f across the nested apply (the cache key
                    # references it; rlo/rhi are protected as nested
                    # arguments).
                    st.append(f)
                    if ac & 2:
                        res = self.and_(rlo, rhi)
                    else:
                        res = self.and_(rlo ^ 1, rhi ^ 1) ^ 1
                    st.pop()
                    qcache[key] = res
                    out.append(res ^ (ac & 1))
                else:
                    # Rebuild an unquantified top node.
                    key = st.pop()
                    ac = st.pop()
                    rlo = st.pop()
                    f = st.pop()
                    rhi = out.pop()
                    st.append(f)
                    st.append(rlo)
                    st.append(rhi)
                    res = self._mk_level(var[f >> 1], rlo, rhi)
                    del st[-3:]
                    qcache[key] = res
                    out.append(res ^ (ac & 1))
            return out[0]
        finally:
            stacks.pop()
            stacks.pop()
            self.quant_calls += qcalls
            self.quant_cache_hits += qhits

    def match_forall(self, outputs: Sequence[int], on_bdds: Sequence[int],
                     dc_bdds: Sequence[int], num_inputs: int) -> int:
        """Comparator + universal quantifier for Section 5.2, as a row fold.

        Computes ``forall x0..x_{b-1} . AND_l (dc_l OR (outputs_l XNOR
        on_l))`` with ``b = num_inputs`` without building the equality
        BDD over X and Y.  The quantifier is a conjunction over the
        ``2**b`` input rows, so the method folds the rows in ascending
        order (row ``r`` sets the input at level ``k`` to bit ``k`` of
        ``r``).  Per row it reads each line's cofactor by walking the
        output, on and dc edges down the X block — a walk that creates
        no nodes.  ``on_l(r)`` and ``dc_l(r)`` are terminals, a line
        with ``dc_l(r)`` TRUE is skipped, and the others contribute
        ``outputs_l|r XNOR on_l(r)``, a BDD over the select variables.
        The row's terms are ANDed together, then into the accumulator;
        either reaching FALSE ends the fold.  Each folded row counts as
        one ``quant_calls``.

        Requires every ``on``/``dc`` BDD to depend only on levels ``<
        num_inputs`` and the inputs to occupy the top ``num_inputs``
        levels of the order (true by construction for spec BDDs built
        over the X block, and preserved by block-constrained sifting);
        where they do not, conjoin the comparators with :meth:`conj`
        and quantify with :meth:`forall` instead.
        """
        var = self._var
        lo = self._lo
        hi = self._hi

        def at(e: int, r: int) -> int:
            """The cofactor of ``e`` at input row ``r``."""
            while e > 1:
                i = e >> 1
                k = var[i]
                if k >= num_inputs:
                    break
                e = (hi[i] if (r >> k) & 1 else lo[i]) ^ (e & 1)
            return e

        # The arguments and the accumulator stay visible to the GC scan
        # while the nested applies run; pins[-1] tracks the accumulator.
        pins = [*outputs, *on_bdds, *dc_bdds, TRUE]
        stacks = self._active_stacks
        stacks.append(pins)
        rows = 0
        try:
            acc = TRUE
            for r in range(1 << num_inputs):
                rows += 1
                row = TRUE
                for l in range(len(outputs)):
                    if at(dc_bdds[l], r) == TRUE:
                        continue
                    term = at(outputs[l], r) ^ at(on_bdds[l], r) ^ 1
                    row = self.and_(row, term)
                    if row == FALSE:
                        return FALSE
                acc = self.and_(acc, row)
                if acc == FALSE:
                    return FALSE
                pins[-1] = acc
            return acc
        finally:
            stacks.pop()
            self.quant_calls += rows

    # -- evaluation / models -----------------------------------------------------------------

    def evaluate(self, f: int, assignment: Dict[int, bool]) -> bool:
        """Evaluate under a total assignment of the support variables."""
        node = f
        while node > 1:
            index = node >> 1
            var = self._var_at_level[self._var[index]]
            if var not in assignment:
                raise ValueError(f"assignment misses variable {var}")
            child = self._hi[index] if assignment[var] else self._lo[index]
            node = child ^ (node & 1)
        return node == TRUE

    def support(self, f: int) -> Set[int]:
        """The set of variables ``f`` depends on (as variable ids)."""
        seen: Set[int] = set()
        result: Set[int] = set()
        stack = [f >> 1]
        while stack:
            index = stack.pop()
            if not index or index in seen:
                continue
            seen.add(index)
            result.add(self._var_at_level[self._var[index]])
            stack.append(self._lo[index] >> 1)
            stack.append(self._hi[index] >> 1)
        return result

    def count_models(self, f: int, variables: Sequence[int]) -> int:
        """Number of satisfying assignments over exactly ``variables``.

        ``variables`` must be a superset of ``support(f)``; variables
        outside the support double the count.  This computes the paper's
        ``#SOL`` column (models over all gate-select inputs).  Counting
        walks the diagram in *level* order (the count is independent of
        enumeration order), so it stays correct under any reordering.
        """
        var_list = sorted(set(variables))
        missing = self.support(f) - set(var_list)
        if missing:
            raise ValueError(f"variables {sorted(missing)} in support but not counted")
        level_of_var = self._level_of_var
        by_level = sorted(var_list, key=lambda v: level_of_var[v])
        position = {level_of_var[v]: i for i, v in enumerate(by_level)}
        total = len(var_list)

        # Memoized per *edge*: a node and its complement count
        # differently, and both can be reachable in one diagram.
        memo: Dict[int, int] = {}

        def level_of(node: int) -> int:
            return position[self._var[node >> 1]] if node > 1 else total

        def rec(node: int) -> int:
            # models over variables at positions level_of(node)..total-1
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1
            cached = memo.get(node)
            if cached is not None:
                return cached
            here = level_of(node)
            index = node >> 1
            comp = node & 1
            result = 0
            for child in (self._lo[index] ^ comp, self._hi[index] ^ comp):
                result += rec(child) << (level_of(child) - here - 1)
            memo[node] = result
            return result

        return rec(f) << level_of(f)

    def iter_models(self, f: int, variables: Sequence[int]) -> Iterator[Dict[int, bool]]:
        """Yield every satisfying assignment over exactly ``variables``.

        Path don't-cares are expanded, so the number of yielded models
        equals :meth:`count_models`.  Models come out in lexicographic
        order of the variable list — which requires the diagram's level
        order to agree with the sorted-id order on these variables
        (callers that reorder restore the block first; see
        ``reorder.restore_block_order``).
        """
        var_list = sorted(set(variables))
        missing = self.support(f) - set(var_list)
        if missing:
            raise ValueError(f"variables {sorted(missing)} in support but not enumerated")
        level_of_var = self._level_of_var
        levels = [level_of_var[v] for v in var_list]
        if any(levels[i] >= levels[i + 1] for i in range(len(levels) - 1)):
            raise ValueError(
                "diagram level order disagrees with the enumeration order; "
                "restore the block order before iterating models")

        def rec(node: int, depth: int, partial: Dict[int, bool]) -> Iterator[Dict[int, bool]]:
            if node == FALSE:
                return
            if depth == len(var_list):
                yield dict(partial)
                return
            var = var_list[depth]
            if node > 1 and self._var[node >> 1] == level_of_var[var]:
                comp = node & 1
                branches = ((False, self._lo[node >> 1] ^ comp),
                            (True, self._hi[node >> 1] ^ comp))
            else:
                branches = ((False, node), (True, node))
            for value, child in branches:
                partial[var] = value
                yield from rec(child, depth + 1, partial)
            del partial[var]

        yield from rec(f, 0, {})

    def sat_one(self, f: int) -> Optional[Dict[int, bool]]:
        """One satisfying assignment over ``support(f)``; None if UNSAT."""
        if f == FALSE:
            return None
        assignment: Dict[int, bool] = {}
        node = f
        while node > 1:
            index = node >> 1
            comp = node & 1
            var = self._var_at_level[self._var[index]]
            lo = self._lo[index] ^ comp
            if lo != FALSE:
                assignment[var] = False
                node = lo
            else:
                assignment[var] = True
                node = self._hi[index] ^ comp
        return assignment

    # -- building from sets ---------------------------------------------------------------------

    def from_minterms(self, variables: Sequence[int], minterms: Iterable[int]) -> int:
        """The function that is 1 exactly on the given packed minterms.

        Bit ``j`` of a minterm corresponds to ``variables[j]``.  Built
        bottom-up over the current level order for linear-time
        construction per minterm set.
        """
        var_list = list(variables)
        minterm_set = set(minterms)
        if not minterm_set:
            return FALSE
        if any(not 0 <= m < (1 << len(var_list)) for m in minterm_set):
            raise ValueError("minterm out of range")
        # Positions of the variables in the current order, topmost first.
        level_of_var = self._level_of_var
        order = sorted(range(len(var_list)),
                       key=lambda j: level_of_var[var_list[j]])
        prev = self._gc_enabled
        self._gc_enabled = False

        def rec(depth: int, terms: frozenset) -> int:
            if not terms:
                return FALSE
            if depth == len(order):
                return TRUE
            j = order[depth]
            lo_terms = frozenset(t for t in terms if not (t >> j) & 1)
            hi_terms = frozenset(t for t in terms if (t >> j) & 1)
            return self._mk_level(level_of_var[var_list[j]],
                                  rec(depth + 1, lo_terms),
                                  rec(depth + 1, hi_terms))

        try:
            return rec(0, frozenset(minterm_set))
        finally:
            self._gc_enabled = prev

    def minterm(self, assignment: Dict[int, bool]) -> int:
        """Conjunction of literals given by a variable assignment."""
        level_of_var = self._level_of_var
        result = TRUE
        for var in sorted(assignment, key=lambda v: level_of_var[v],
                          reverse=True):
            result = self._mk_level(level_of_var[var],
                                    FALSE if assignment[var] else result,
                                    result if assignment[var] else FALSE)
        return result

    # -- external references / garbage collection ------------------------------------------------

    def protect(self, edge: int) -> int:
        """Register ``edge`` as an external GC root; returns the edge.

        Calls nest: each ``protect`` needs a matching ``unprotect``.
        """
        self._refs[edge] = self._refs.get(edge, 0) + 1
        return edge

    def unprotect(self, edge: int) -> None:
        count = self._refs.get(edge, 0) - 1
        if count < 0:
            raise ValueError(f"unprotect of unprotected edge {edge}")
        if count:
            self._refs[edge] = count
        else:
            del self._refs[edge]

    @contextmanager
    def protected(self, *edges: int) -> Iterator[Tuple[int, ...]]:
        """Scope that protects ``edges`` for its duration."""
        for edge in edges:
            self.protect(edge)
        try:
            yield edges
        finally:
            for edge in edges:
                self.unprotect(edge)

    def enable_auto_gc(self, threshold: Optional[int] = None,
                       enabled: bool = True) -> None:
        """Let the allocator trigger :meth:`gc` at ``threshold`` live nodes.

        While enabled, callers must hold only protected edges (or
        arguments of the running operation) across allocating calls.
        """
        if threshold is not None:
            if threshold < 2:
                raise ValueError("gc threshold must be at least 2")
            self._gc_threshold = threshold
        self._gc_enabled = enabled

    def enable_auto_reorder(self, lower: int = 0, upper: Optional[int] = None,
                            ratio: int = 4, min_nodes: int = 1 << 13,
                            enabled: bool = True) -> None:
        """Arm sifting-based reordering at :meth:`maybe_reorder` checkpoints.

        ``lower``/``upper`` bound the level range sifted (the synthesis
        engine constrains sifting to the select-variable block so the
        input block stays on top — the :meth:`match_forall`
        precondition).  Reordering runs when the live-node count has
        grown ``ratio``-fold past the last reorder (or ``min_nodes``),
        and only when the caller asks: in-flight apply loops hold level
        numbers in their frames, so the trigger is a checkpoint call
        between operations, never the allocator itself.
        """
        self._reorder_bounds = (lower, upper)
        self._reorder_ratio = ratio
        self._reorder_min = min_nodes
        self._reorder_next = min_nodes
        self._reorder_enabled = enabled

    def maybe_reorder(self) -> bool:
        """Sift now if armed and the store grew past the trigger point."""
        if not self._reorder_enabled or self._live < self._reorder_next:
            return False
        from .reorder import sift
        lower, upper = self._reorder_bounds
        sift(self, lower=lower, upper=upper)
        next_at = self._live * self._reorder_ratio
        if next_at < self._reorder_min:
            next_at = self._reorder_min
        self._reorder_next = next_at
        return True

    def maybe_gc(self, extra_roots: Sequence[int] = ()) -> int:
        """Run :meth:`gc` if the store crossed the auto-GC threshold."""
        if self._live >= self._gc_threshold:
            return self.gc(extra_roots)
        return 0

    def gc(self, extra_roots: Sequence[int] = ()) -> int:
        """Mark-and-sweep collection; returns the number of nodes freed.

        Roots are the protected references, ``extra_roots`` and a
        conservative scan of in-flight operation stacks (every int is
        treated as a potential edge — over-approximation only ever
        retains more).  Dead nodes go on the free list, keeping all
        surviving edge values unchanged; the unique table is rebuilt
        and the computed caches invalidated.
        Roots are collected here; with the kernel attached, the mark
        and sweep from them run natively.
        """
        nvals = len(self._var)
        if self._live > self.peak_nodes:
            self.peak_nodes = self._live
        _var = self._var
        stack: List[int] = [e >> 1 for e in self._refs]
        stack.extend(e >> 1 for e in extra_roots)
        for lst in self._active_stacks:
            for x in lst:
                i = x >> 1
                if 0 < i < nvals and _var[i] >= 0:
                    stack.append(i)
        if self._klib is not None:
            freed = self._kernel_sweep(stack)
        else:
            _lo = self._lo
            _hi = self._hi
            mark = bytearray(nvals)
            mark[0] = 1
            while stack:
                i = stack.pop()
                if i <= 0 or i >= nvals or mark[i] or _var[i] < 0:
                    continue
                mark[i] = 1
                stack.append(_lo[i] >> 1)
                stack.append(_hi[i] >> 1)
            freed = 0
            free = self._free
            for i in range(1, nvals):
                if not mark[i] and _var[i] >= 0:
                    _var[i] = -2
                    _lo[i] = free
                    _hi[i] = 0  # keep stored high edges regular everywhere
                    free = i
                    freed += 1
            self._free = free
        self._live -= freed
        self.gc_runs += 1
        self.gc_reclaimed += freed
        self._rebuild_utab()
        self._bump_gen()
        self._quant_cache.clear()
        # Back off the auto-GC threshold when live data stays high, so
        # the allocator does not thrash collections.
        if self._gc_enabled and (self._live << 1) > self._gc_threshold:
            self._gc_threshold = self._live << 1
        return freed

    def _kernel_sweep(self, roots: List[int]) -> int:
        """Native mark from the node indices ``roots`` and sweep; see gc."""
        nvals = len(self._var)
        kept = array("q", [i for i in roots if 0 < i < nvals])
        ffi = self._kffi
        head = ffi.new("int64_t *", self._free)
        freed = self._klib.bdd_sweep(*self._kcols(), nvals,
                                     ffi.from_buffer("int64_t[]", kept),
                                     len(kept), head)
        if freed < 0:
            raise MemoryError("BDD garbage collection ran out of memory")
        self._free = head[0]
        return freed

    # -- maintenance -------------------------------------------------------------------------------

    def cache_size(self) -> int:
        """Total entries across the operation caches."""
        return self._centries + len(self._quant_cache)

    def clear_caches(self) -> None:
        """Drop the operation caches (unique table is kept)."""
        self.cache_clears += 1
        self._bump_gen()
        self._quant_cache.clear()

    def node_store_bytes(self) -> int:
        """Bytes held by the node columns and the unique table.

        The per-node figure this implies (``/ node_count()``) is the
        packing metric tracked in docs/performance.md; operation caches
        are excluded because they are bounded workspace, not the store.
        """
        return (self._var.__sizeof__() + self._lo.__sizeof__() +
                self._hi.__sizeof__() + self._utab.__sizeof__())

    def bytes_used(self) -> int:
        """Total bytes across store, tables and caches (estimate).

        Flat structures are measured exactly; the dict-backed quantify
        cache and reference table are estimated at ``getsizeof(dict) +
        48`` bytes per entry (pointer pair plus a small key object).
        """
        return (self.node_store_bytes() +
                self._ck1.__sizeof__() + self._ck2.__sizeof__() +
                self._ck3.__sizeof__() + self._cres.__sizeof__() +
                sys.getsizeof(self._quant_cache) +
                48 * len(self._quant_cache) +
                sys.getsizeof(self._refs) +
                self._level_of_var.__sizeof__() +
                self._var_at_level.__sizeof__())

    def stats(self) -> Dict[str, int]:
        """Instrumentation snapshot, in the ``docs/observability.md`` names.

        Counter values are cumulative over the manager's lifetime and
        survive :meth:`clear_caches`/:meth:`gc`;
        callers wanting per-phase figures diff two snapshots.  The
        ``ite_*`` names cover the whole apply layer (AND, XOR and ITE
        share one tagged cache) — the names predate the v2 split and
        stay for metric stability.  ``bytes`` is a point-in-time gauge.
        """
        return {
            "nodes": self._live,
            "peak_nodes": max(self.peak_nodes, self._live),
            "num_vars": self.num_vars,
            "ite_calls": self.ite_cache_hits + self._cmisses,
            "ite_cache_hits": self.ite_cache_hits,
            "ite_cache_entries": self._centries,
            "quant_calls": self.quant_calls,
            "quant_cache_hits": self.quant_cache_hits,
            "quant_cache_entries": len(self._quant_cache),
            "cache_clears": self.cache_clears,
            "gc_runs": self.gc_runs,
            "gc_reclaimed": self.gc_reclaimed,
            "table_grows": self.table_grows,
            "reorder_runs": self.reorder_runs,
            "reorder_swaps": self.reorder_swaps,
            "bytes": self.bytes_used(),
        }

    # -- export --------------------------------------------------------------------------------------

    def to_dot(self, f: int, name: str = "bdd") -> str:
        """Graphviz DOT rendering.

        Solid = high edge, dashed = low edge; a dot arrowhead marks a
        complemented edge.  The terminal box is the constant 0; the root
        polarity is shown on the entry edge.
        """
        root_comp = ",arrowhead=dot" if f & 1 else ""
        lines = [f"digraph {name} {{", '  node [shape=circle];',
                 '  n0 [shape=box,label="0"];',
                 '  root [shape=none,label=""];',
                 f"  root -> n{f >> 1} [style=dashed{root_comp}];"]
        seen: Set[int] = set()
        stack = [f >> 1]
        while stack:
            index = stack.pop()
            if not index or index in seen:
                continue
            seen.add(index)
            lo = self._lo[index]
            hi = self._hi[index]
            lo_comp = ",arrowhead=dot" if lo & 1 else ""
            label = self._names[self._var_at_level[self._var[index]]]
            lines.append(f'  n{index} [label="{label}"];')
            lines.append(f"  n{index} -> n{lo >> 1} [style=dashed{lo_comp}];")
            lines.append(f"  n{index} -> n{hi >> 1};")
            stack.append(lo >> 1)
            stack.append(hi >> 1)
        lines.append("}")
        return "\n".join(lines)
