"""The native kernel: the v3 packed BDD tables and the CDCL search loop.

The v3 manager stores nodes and tables in flat ``array`` buffers
precisely so that the innermost apply loops stop being interpreter
work.  This module compiles a small C kernel (via :mod:`cffi` in ABI
mode with the system C compiler — both ship with the container; there
is nothing to install) that runs the ``AND``/``XOR``/``ITE``
recursions and the table-upkeep loops directly over those buffers: the same unique table, the
same computed cache, the same complement-edge normalization, byte for
byte the same table layout as the pure-Python loops in
``repro.bdd.manager``.  Python and C interoperate on one set of
tables — a cache entry written by either side hits in the other.

**Cooperative pauses.**  The apply recursions never decide to grow a
table, and never call back into Python.  They allocate nodes only from
the free list and decrement a caller-set allocation budget; when the
budget hits zero, the free list empties, or the unique table reaches
its load limit, the recursion unwinds returning ``-1`` and the manager
services the pause (fire the allocation tick, extend the columns, grow
the table) before re-invoking the same call.  Nothing collects during a
pause: ``BddManager.gc`` runs only between operations.  Replays are
cheap: everything computed before the pause is already in the computed
cache.  This keeps every policy decision — table growth, deadlines —
in Python, where the rest of the repo can observe it.

**Table upkeep.**  Servicing a pause is itself loop work, so the
kernel also carries those loops, run only when Python asks:
``bdd_rehash`` (unique-table doubling), ``bdd_rebuild`` (re-insert the
live nodes after GC), ``bdd_chain`` (thread freshly appended column
slots into the free list) and ``bdd_sweep`` (mark from a root list the
manager collected, then free the unmarked nodes).  Each visits entries in the same order as its pure-Python
counterpart in ``repro.bdd.manager``, so table bytes, free-list
chains and counts come out identical either way.  ``bdd_chain`` has no
such counterpart: only the kernel path pre-extends the free list; a
pure-Python manager appends new nodes instead.

**The CDCL search loop.**  The same library carries the search loop
of :class:`repro.sat.cdcl.CdclSolver`, whose C source lives in
:mod:`repro.sat.kernel` and is appended to this one at build time:
one compile, one cache entry, one opt-out for both.  The two sides
open the library with their own declarations (``load_kernel`` and
``load_cdcl_kernel``), so a process parses only what it uses.

**Gating.**  ``load_kernel()`` memoizes a build attempt; if ``cffi``
or a C compiler is missing, or ``REPRO_BDD_KERNEL=0`` is set, it
returns ``None`` and the BDD manager and the CDCL solver fall back to
their pure-Python loops with identical semantics.  The compiled
library is cached under ``_kcache/`` next to this file (gitignored)
keyed by a hash of the C source and the compiler flags, so the
one-time compile cost is paid per source revision, not per process.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from typing import Any, Dict, Optional, Tuple

__all__ = ["load_kernel", "load_cdcl_kernel", "kernel_available"]

# Layout must match the manager's tables exactly: var is an ``array('i')``
# of levels (-1 terminal, -2 free), utab an ``array('i')`` of node
# indices (int32 — the store is capped at 2**31 nodes, ~43 GB of
# columns, long past any feasible run), lo/hi/ck*/cres ``array('q')``.
# Hash constants mirror repro.bdd.manager; all products stay far below
# 2**64, so Python's arbitrary-precision arithmetic and C's uint64
# compute identical slots.
_CDEF = """
typedef struct {
    int32_t *var;
    int64_t *lo;
    int64_t *hi;
    int32_t *utab;
    int64_t umask;
    int64_t *ck1;
    int64_t *ck2;
    int64_t *ck3;
    int64_t *cres;
    int64_t cmask;
    int64_t gen;
    int64_t freehead;
    int64_t live;
    int64_t ucount;
    int64_t centries;
    int64_t budget;
    int64_t hits;
    int64_t misses;
    int64_t allocs;
} BddCtx;

int64_t bdd_and(BddCtx *c, int64_t f, int64_t g);
int64_t bdd_xor(BddCtx *c, int64_t f, int64_t g);
int64_t bdd_ite(BddCtx *c, int64_t f, int64_t g, int64_t h);
void bdd_rehash(const int32_t *var, const int64_t *lo, const int64_t *hi,
                const int32_t *old, int64_t oldsize, int32_t *tab,
                int64_t mask);
void bdd_rebuild(const int32_t *var, const int64_t *lo, const int64_t *hi,
                 int64_t nvals, int32_t *tab, int64_t mask);
void bdd_chain(int64_t *lo, int64_t base, int64_t count, int64_t head);
int64_t bdd_sweep(int32_t *var, int64_t *lo, int64_t *hi, int64_t nvals,
                  const int64_t *roots, int64_t nroots, int64_t *head);
"""

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

typedef struct {
    int32_t *var;
    int64_t *lo;
    int64_t *hi;
    int32_t *utab;
    int64_t umask;
    int64_t *ck1;
    int64_t *ck2;
    int64_t *ck3;
    int64_t *cres;
    int64_t cmask;
    int64_t gen;
    int64_t freehead;
    int64_t live;
    int64_t ucount;
    int64_t centries;
    int64_t budget;
    int64_t hits;
    int64_t misses;
    int64_t allocs;
} BddCtx;

/* Unique-table slot of (level, lo, hi); mirrors _UH1/_UH2 in manager.py. */
static inline uint64_t uhash(int64_t lo, int64_t hi, int64_t level,
                             uint64_t mask)
{
    return ((uint64_t)lo * 10000019u + (uint64_t)hi * 8388617u
            + (uint64_t)level) & mask;
}

/* Hash-consed node constructor; mirrors BddManager._mk_level.  Returns
 * the edge, or -1 to request a pause (budget exhausted, free list
 * empty, or unique table at its load limit). */
static int64_t mk(BddCtx *c, int64_t level, int64_t lo, int64_t hi)
{
    int64_t comp, n;
    uint64_t slot;
    if (lo == hi)
        return lo;
    comp = hi & 1;
    if (comp) {
        lo ^= 1;
        hi ^= 1;
    }
    slot = uhash(lo, hi, level, (uint64_t)c->umask);
    for (;;) {
        n = c->utab[slot];
        if (n == 0) {
            if (c->budget <= 0 || c->freehead == 0
                    || (c->ucount << 1) > c->umask)
                return -1;
            n = c->freehead;
            c->freehead = c->lo[n];
            c->var[n] = (int32_t)level;
            c->lo[n] = lo;
            c->hi[n] = hi;
            c->utab[slot] = (int32_t)n;
            c->ucount++;
            c->live++;
            c->allocs++;
            c->budget--;
            return (n << 1) | comp;
        }
        if (c->lo[n] == lo && c->hi[n] == hi && c->var[n] == (int32_t)level)
            return (n << 1) | comp;
        slot = (slot + 1) & (uint64_t)c->umask;
    }
}

int64_t bdd_and(BddCtx *c, int64_t f, int64_t g)
{
    int64_t t, fi, gi, f0, f1, g0, g1, rlo, rhi, res;
    int32_t lf, lg, level;
    uint64_t slot;
    if (f == g)
        return f;
    if (f > g) {
        t = f;
        f = g;
        g = t;
    }
    if (f == 0)
        return 0;
    if (f == 1)
        return g;
    if ((f ^ g) == 1)
        return 0;
    slot = (((uint64_t)f * 40503u) ^ ((uint64_t)g * 10000019u))
        & (uint64_t)c->cmask;
    if (c->ck1[slot] == ((f << 2) | 1) && c->ck2[slot] == ((g << 16) | c->gen)) {
        c->hits++;
        return c->cres[slot];
    }
    fi = f >> 1;
    gi = g >> 1;
    lf = c->var[fi];
    lg = c->var[gi];
    level = lf < lg ? lf : lg;
    if (lf == level) {
        t = f & 1;
        f0 = c->lo[fi] ^ t;
        f1 = c->hi[fi] ^ t;
    } else {
        f0 = f1 = f;
    }
    if (lg == level) {
        t = g & 1;
        g0 = c->lo[gi] ^ t;
        g1 = c->hi[gi] ^ t;
    } else {
        g0 = g1 = g;
    }
    rlo = bdd_and(c, f0, g0);
    if (rlo < 0)
        return -1;
    rhi = bdd_and(c, f1, g1);
    if (rhi < 0)
        return -1;
    res = mk(c, level, rlo, rhi);
    if (res < 0)
        return -1;
    if ((c->ck2[slot] & 0xFFFF) != c->gen)
        c->centries++;
    c->ck1[slot] = (f << 2) | 1;
    c->ck2[slot] = (g << 16) | c->gen;
    c->cres[slot] = res;
    c->misses++;
    return res;
}

int64_t bdd_xor(BddCtx *c, int64_t f, int64_t g)
{
    int64_t t, comp, fi, gi, f0, f1, g0, g1, rlo, rhi, res;
    int32_t lf, lg, level;
    uint64_t slot;
    comp = (f ^ g) & 1;
    f &= ~(int64_t)1;
    g &= ~(int64_t)1;
    if (f == g)
        return comp;
    if (f > g) {
        t = f;
        f = g;
        g = t;
    }
    if (f == 0)
        return g ^ comp;
    slot = (((uint64_t)f * 40503u) ^ ((uint64_t)g * 10000019u))
        & (uint64_t)c->cmask;
    if (c->ck1[slot] == ((f << 2) | 2) && c->ck2[slot] == ((g << 16) | c->gen)) {
        c->hits++;
        return c->cres[slot] ^ comp;
    }
    fi = f >> 1;
    gi = g >> 1;
    lf = c->var[fi];
    lg = c->var[gi];
    level = lf < lg ? lf : lg;
    if (lf == level) {
        f0 = c->lo[fi];
        f1 = c->hi[fi];
    } else {
        f0 = f1 = f;
    }
    if (lg == level) {
        g0 = c->lo[gi];
        g1 = c->hi[gi];
    } else {
        g0 = g1 = g;
    }
    rlo = bdd_xor(c, f0, g0);
    if (rlo < 0)
        return -1;
    rhi = bdd_xor(c, f1, g1);
    if (rhi < 0)
        return -1;
    res = mk(c, level, rlo, rhi);
    if (res < 0)
        return -1;
    if ((c->ck2[slot] & 0xFFFF) != c->gen)
        c->centries++;
    c->ck1[slot] = (f << 2) | 2;
    c->ck2[slot] = (g << 16) | c->gen;
    c->cres[slot] = res;
    c->misses++;
    return res ^ comp;
}

int64_t bdd_ite(BddCtx *c, int64_t f, int64_t g, int64_t h)
{
    int64_t t, fi, gi, hi_i, comp, f0, f1, g0, g1, h0, h1, rlo, rhi, res;
    int32_t level, lv;
    uint64_t slot;
    if (f == 1)
        return g;
    if (f == 0)
        return h;
    if (g == h)
        return g;
    if (f & 1) {
        f ^= 1;
        t = g;
        g = h;
        h = t;
    }
    if (g == f)
        g = 1;
    else if (g == (f ^ 1))
        g = 0;
    if (h == f)
        h = 0;
    else if (h == (f ^ 1))
        h = 1;
    if (g == h)
        return g;
    if (g == 1) {
        if (h == 0)
            return f;
        res = bdd_and(c, f ^ 1, h ^ 1);
        return res < 0 ? -1 : res ^ 1;
    }
    if (g == 0) {
        if (h == 1)
            return f ^ 1;
        return bdd_and(c, f ^ 1, h);
    }
    if (h == 0)
        return bdd_and(c, f, g);
    if (h == 1) {
        res = bdd_and(c, f, g ^ 1);
        return res < 0 ? -1 : res ^ 1;
    }
    if (g == (h ^ 1)) {
        return bdd_xor(c, f, h);
    }
    comp = g & 1;
    if (comp) {
        g ^= 1;
        h ^= 1;
    }
    slot = (((uint64_t)f * 40503u) ^ ((uint64_t)g * 10000019u)
            ^ ((uint64_t)h * 97u)) & (uint64_t)c->cmask;
    if (c->ck1[slot] == ((f << 2) | 3) && c->ck2[slot] == ((g << 16) | c->gen)
            && c->ck3[slot] == h) {
        c->hits++;
        return c->cres[slot] ^ comp;
    }
    fi = f >> 1;
    gi = g >> 1;
    hi_i = h >> 1;
    level = c->var[fi];
    lv = c->var[gi];
    if (lv < level)
        level = lv;
    lv = c->var[hi_i];
    if (lv < level)
        level = lv;
    if (c->var[fi] == level) {
        f0 = c->lo[fi];
        f1 = c->hi[fi];
    } else {
        f0 = f1 = f;
    }
    if (c->var[gi] == level) {
        g0 = c->lo[gi];
        g1 = c->hi[gi];
    } else {
        g0 = g1 = g;
    }
    if (c->var[hi_i] == level) {
        t = h & 1;
        h0 = c->lo[hi_i] ^ t;
        h1 = c->hi[hi_i] ^ t;
    } else {
        h0 = h1 = h;
    }
    rlo = bdd_ite(c, f0, g0, h0);
    if (rlo < 0)
        return -1;
    rhi = bdd_ite(c, f1, g1, h1);
    if (rhi < 0)
        return -1;
    res = mk(c, level, rlo, rhi);
    if (res < 0)
        return -1;
    if ((c->ck2[slot] & 0xFFFF) != c->gen)
        c->centries++;
    c->ck1[slot] = (f << 2) | 3;
    c->ck2[slot] = (g << 16) | c->gen;
    c->ck3[slot] = h;
    c->cres[slot] = res;
    c->misses++;
    return res ^ comp;
}

/* ---- table upkeep: the loops only; Python decides when to run them ---- */

/* Insert live node n into an open-addressed table (it is not present). */
static void insert(const int32_t *var, const int64_t *lo, const int64_t *hi,
                   int32_t *tab, uint64_t mask, int64_t n)
{
    uint64_t slot = uhash(lo[n], hi[n], var[n], mask);
    while (tab[slot])
        slot = (slot + 1) & mask;
    tab[slot] = (int32_t)n;
}

/* Re-insert every entry of old (oldsize slots) into the zeroed tab, in
 * old-slot order; mirrors BddManager._grow_utab. */
void bdd_rehash(const int32_t *var, const int64_t *lo, const int64_t *hi,
                const int32_t *old, int64_t oldsize, int32_t *tab,
                int64_t mask)
{
    int64_t s;
    for (s = 0; s < oldsize; s++)
        if (old[s])
            insert(var, lo, hi, tab, (uint64_t)mask, old[s]);
}

/* Insert every live node of the columns into the zeroed tab, in index
 * order; mirrors BddManager._rebuild_utab. */
void bdd_rebuild(const int32_t *var, const int64_t *lo, const int64_t *hi,
                 int64_t nvals, int32_t *tab, int64_t mask)
{
    int64_t n;
    for (n = 1; n < nvals; n++)
        if (var[n] >= 0)
            insert(var, lo, hi, tab, (uint64_t)mask, n);
}

/* Thread lo[base .. base+count-1] into an ascending free-list chain
 * ending in head; mirrors BddManager._extend_free. */
void bdd_chain(int64_t *lo, int64_t base, int64_t count, int64_t head)
{
    int64_t i, last = base + count - 1;
    if (count <= 0)
        return;
    for (i = base; i < last; i++)
        lo[i] = i + 1;
    lo[last] = head;
}

typedef struct {
    int64_t *items;
    int64_t top;
    int64_t cap;
} Stack;

/* Mark node i and push it, unless it is out of range, marked or free.
 * Returns -1 when the stack cannot grow. */
static int visit(Stack *s, unsigned char *mark, const int32_t *var,
                 int64_t nvals, int64_t i)
{
    int64_t *grown;
    if (i <= 0 || i >= nvals || mark[i] || var[i] < 0)
        return 0;
    mark[i] = 1;
    if (s->top == s->cap) {
        grown = realloc(s->items, (size_t)(s->cap << 1) * sizeof *grown);
        if (grown == NULL)
            return -1;
        s->items = grown;
        s->cap <<= 1;
    }
    s->items[s->top++] = i;
    return 0;
}

/* Mark from the node indices in roots, then push every unmarked live
 * node onto the free list headed by *head, visiting indices in
 * ascending order; mirrors the mark and sweep of BddManager.gc.  Returns the number of
 * nodes freed, or -1 (nothing changed) when memory runs out. */
int64_t bdd_sweep(int32_t *var, int64_t *lo, int64_t *hi, int64_t nvals,
                  const int64_t *roots, int64_t nroots, int64_t *head)
{
    unsigned char *mark;
    Stack s;
    int64_t k, i, chain, freed = 0;
    s.top = 0;
    s.cap = 4096;
    s.items = malloc((size_t)s.cap * sizeof *s.items);
    mark = calloc((size_t)nvals, 1);
    if (s.items == NULL || mark == NULL)
        goto oom;
    mark[0] = 1;
    for (k = 0; k < nroots; k++) {
        if (visit(&s, mark, var, nvals, roots[k]) < 0)
            goto oom;
        while (s.top) {
            i = s.items[--s.top];
            if (visit(&s, mark, var, nvals, lo[i] >> 1) < 0
                    || visit(&s, mark, var, nvals, hi[i] >> 1) < 0)
                goto oom;
        }
    }
    chain = *head;
    for (i = 1; i < nvals; i++)
        if (!mark[i] && var[i] >= 0) {
            var[i] = -2;
            lo[i] = chain;
            hi[i] = 0;
            chain = i;
            freed++;
        }
    *head = chain;
    free(mark);
    free(s.items);
    return freed;
oom:
    free(mark);
    free(s.items);
    return -1;
}
"""

# No floating-point contraction: the CDCL activity arithmetic must round
# exactly as Python's does.
_CFLAGS = ["-O2", "-ffp-contract=off", "-shared", "-fPIC"]

_library: Optional[str] = None
_built = False
_opened: Dict[str, Tuple[Optional[Any], Optional[Any]]] = {}


def _cache_dir() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kcache")


def _build() -> Optional[str]:
    """Compile the library (or find it cached); its path, or None."""
    if os.environ.get("REPRO_BDD_KERNEL", "1") == "0":
        return None
    from array import array
    if array("i").itemsize != 4 or array("q").itemsize != 8:
        return None  # exotic ABI; the table layout assumption fails
    try:
        import cffi  # noqa: F401  (only its presence is checked here)
    except ImportError:
        return None
    from repro.sat import kernel as cdcl_kernel  # repro.sat imports us

    source = _SOURCE + cdcl_kernel.SOURCE
    digest = hashlib.sha256(
        " ".join(_CFLAGS + [source]).encode()).hexdigest()[:16]
    directory = _cache_dir()
    so_path = os.path.join(directory, f"bddkernel_{digest}.so")
    if not os.path.exists(so_path):
        try:
            os.makedirs(directory, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=directory) as tmp:
                c_path = os.path.join(tmp, "kernel.c")
                with open(c_path, "w") as handle:
                    handle.write(source)
                tmp_so = os.path.join(tmp, "kernel.so")
                cc = os.environ.get("CC", "cc")
                subprocess.run(
                    [cc, *_CFLAGS, "-o", tmp_so, c_path],
                    check=True, capture_output=True, timeout=120)
                # Atomic publish so concurrent processes race safely.
                os.replace(tmp_so, so_path)
        except (OSError, subprocess.SubprocessError):
            return None
    return so_path


def _open(cdef: str) -> Tuple[Optional[Any], Optional[Any]]:
    """``(ffi, lib)`` over the library with the declarations ``cdef``.

    Memoized per declaration set, so a process parses only the
    declarations it uses: a BDD-only run never parses the solver's.
    """
    global _library, _built
    if cdef not in _opened:
        if not _built:
            _built = True
            _library = _build()
        _opened[cdef] = (None, None)
        if _library is not None:
            import cffi
            try:
                ffi = cffi.FFI()
                ffi.cdef(cdef)
                _opened[cdef] = (ffi, ffi.dlopen(_library))
            except (OSError, cffi.FFIError, cffi.CDefError):
                pass
    return _opened[cdef]


def load_kernel() -> Tuple[Optional[Any], Optional[Any]]:
    """Return ``(ffi, lib)`` for the BDD kernel, or ``(None, None)``.

    The build attempt is memoized per process; failures (no compiler,
    no cffi, opt-out via ``REPRO_BDD_KERNEL=0``) degrade silently to
    the pure-Python loops.
    """
    return _open(_CDEF)


def load_cdcl_kernel() -> Tuple[Optional[Any], Optional[Any]]:
    """Return ``(ffi, lib)`` for the CDCL search loop, or ``(None, None)``.

    The same library and the same gating as :func:`load_kernel`.
    """
    from repro.sat import kernel as cdcl_kernel  # repro.sat imports us

    return _open(cdcl_kernel.CDEF)


def kernel_available() -> bool:
    return load_kernel()[0] is not None
