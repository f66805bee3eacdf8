"""C source of the native CDCL search loop.

:class:`~repro.sat.cdcl.CdclSolver` runs its search in this C code when
the native kernel is available.  The source is compiled into the one
library :mod:`repro.bdd.tables` builds for the BDD kernel too (one
build, one cache hash, one opt-out), and
:func:`repro.bdd.tables.load_cdcl_kernel` opens it with the
declarations below; nothing here loads anything itself.

The C side is a transcription of the pure-Python loops in
``repro.sat.cdcl``, not a different solver: the same coded literals
(``2v`` / ``2v + 1``), the same watch-list order (a clause that keeps
its watch is written back in place, one whose watch moves is appended
to the new literal's list), the same first-UIP analysis with the local
minimization, the same activity arithmetic and rescale thresholds, the
same decision heap (activity descending, smaller variable on ties),
the same Luby restarts and the same stable learnt-database reduction.
Each solve makes exactly the decisions the Python loops make.

Python keeps the API and the policy.  ``cdcl_run`` returns at the
points where the Python loop would look at the clock: every 256
conflicts (``CDCL_PAUSE``) and at the conflict limit (``CDCL_LIMIT``),
so the caller's ``tick`` and deadline run where they always ran.

Memory: clauses live in one arena of ``int32`` words, addressed by word
offset.  A clause is a four-word header (size, flags and LBD, activity
as a double) followed by its literals; the learnt-database reduction
compacts the arena once half of it is garbage.  ``cdcl_free`` releases
everything; the Python owner attaches it with ``ffi.gc``.
"""

from __future__ import annotations

__all__ = ["CDEF", "SOURCE"]

# Shared by the cdef and the C source, so the struct layout cffi reads
# is the one the compiler laid out.
_DECLS = """
#define CDCL_PAUSE 0
#define CDCL_SAT 1
#define CDCL_UNSAT 2
#define CDCL_ROOT_UNSAT 3
#define CDCL_LIMIT 4
#define CDCL_NOMEM -1

typedef struct {
    int32_t *refs;
    int32_t size;
    int32_t cap;
} CdclWatch;

typedef struct {
    int8_t *value;
    uint8_t *phase;
    int32_t *level;
    int32_t *reason;
    double *activity;
    uint8_t *seen;
    int32_t *heap;
    int32_t *heap_pos;
    int32_t *trail;
    int32_t *learnt;
    int32_t *minimized;
    int32_t *core;
    CdclWatch *watches;
    int32_t *trail_lim;
    int64_t *stamp;
    int32_t *mem;
    int32_t *clauses;
    int32_t *learnts;
    int32_t *assumed;
    int64_t mem_size;
    int64_t mem_cap;
    int64_t wasted;
    int64_t stamp_gen;
    int32_t nv;
    int32_t cap;
    int32_t heap_size;
    int32_t trail_size;
    int32_t lim_size;
    int32_t lim_cap;
    int32_t qhead;
    int32_t n_clauses;
    int32_t clauses_cap;
    int32_t n_learnts;
    int32_t learnts_cap;
    int32_t n_assumed;
    int32_t assumed_cap;
    int32_t n_core;
    int32_t oom;
    double var_inc;
    double var_decay;
    double cla_inc;
    double cla_decay;
    int64_t conflicts;
    int64_t decisions;
    int64_t propagations;
    int64_t restarts;
    int64_t learnt_clauses;
    int64_t restart_index;
    int64_t until_restart;
    int64_t since_restart;
    int64_t max_learnts;
} Cdcl;
"""

CDEF = _DECLS + """
Cdcl *cdcl_new(void);
void cdcl_free(Cdcl *s);
int cdcl_grow(Cdcl *s, int32_t nv);
int cdcl_add(Cdcl *s, const int32_t *codes, int32_t n);
void cdcl_cancel(Cdcl *s, int32_t target);
int cdcl_start(Cdcl *s, const int32_t *assumed, int32_t n);
int cdcl_run(Cdcl *s, int64_t conflict_limit);
"""

SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
""" + _DECLS + r"""
#define L_TRUE 1
#define L_FALSE (-1)
#define L_UNDEF 0

/* Clause header words: size, info (flags | lbd << 3), activity (2). */
#define C_LEARNT 1
#define C_DELETED 2
#define C_LOCKED 4
#define C_HEAD 4

static inline int64_t clause_words(int32_t size)
{
    return (C_HEAD + size + 1) & ~(int64_t)1;  /* keeps refs even */
}

static inline double get_act(const int32_t *mem, int32_t ref)
{
    double a;
    memcpy(&a, mem + ref + 2, sizeof a);
    return a;
}

static inline void set_act(int32_t *mem, int32_t ref, double a)
{
    memcpy(mem + ref + 2, &a, sizeof a);
}

static inline int32_t get_lbd(const int32_t *mem, int32_t ref)
{
    return mem[ref + 1] >> 3;
}

/* ---- growth ---- */

static int resize(void **p, size_t bytes)
{
    void *q = realloc(*p, bytes ? bytes : 1);
    if (q == NULL)
        return -1;
    *p = q;
    return 0;
}

static void push(Cdcl *s, int32_t **items, int32_t *size, int32_t *cap,
                 int32_t value)
{
    if (*size == *cap) {
        int32_t grown = *cap ? *cap * 2 : 16;
        if (resize((void **)items, (size_t)grown * sizeof **items) < 0) {
            s->oom = 1;
            return;
        }
        *cap = grown;
    }
    (*items)[(*size)++] = value;
}

static inline void watch(Cdcl *s, int32_t code, int32_t ref)
{
    CdclWatch *w = &s->watches[code];
    if (w->size == w->cap) {
        int32_t grown = w->cap ? w->cap * 2 : 4;
        if (resize((void **)&w->refs, (size_t)grown * sizeof *w->refs) < 0) {
            s->oom = 1;
            return;
        }
        w->cap = grown;
    }
    w->refs[w->size++] = ref;
}

/* Grow the per-variable arrays to hold variables 1..cap. */
static int reserve(Cdcl *s, int32_t cap)
{
    size_t vars = (size_t)cap + 1, codes = 2 * vars;
    size_t old_vars = s->value ? (size_t)s->cap + 1 : 0;
    size_t v;
    if (resize((void **)&s->value, codes) < 0
            || resize((void **)&s->phase, vars) < 0
            || resize((void **)&s->level, vars * 4) < 0
            || resize((void **)&s->reason, vars * 4) < 0
            || resize((void **)&s->activity, vars * 8) < 0
            || resize((void **)&s->seen, vars) < 0
            || resize((void **)&s->heap, vars * 4) < 0
            || resize((void **)&s->heap_pos, vars * 4) < 0
            || resize((void **)&s->trail, vars * 4) < 0
            || resize((void **)&s->learnt, vars * 4) < 0
            || resize((void **)&s->minimized, vars * 4) < 0
            || resize((void **)&s->core, vars * 4) < 0
            || resize((void **)&s->watches, codes * sizeof(CdclWatch)) < 0)
        return -1;
    memset(s->value + 2 * old_vars, 0, codes - 2 * old_vars);
    memset(s->watches + 2 * old_vars, 0,
           (codes - 2 * old_vars) * sizeof(CdclWatch));
    for (v = old_vars; v < vars; v++) {
        s->phase[v] = 0;
        s->level[v] = 0;
        s->reason[v] = -1;
        s->activity[v] = 0.0;
        s->seen[v] = 0;
        s->heap_pos[v] = -1;
    }
    s->cap = cap;
    return 0;
}

/* ---- decision heap: activity descending, smaller variable on ties ---- */

static void sift_up(Cdcl *s, int32_t index)
{
    int32_t *heap = s->heap, *pos = s->heap_pos;
    const double *act = s->activity;
    int32_t var = heap[index];
    double score = act[var];
    while (index > 0) {
        int32_t parent = (index - 1) >> 1;
        int32_t above = heap[parent];
        double above_score = act[above];
        if (above_score > score || (above_score == score && above < var))
            break;
        heap[index] = above;
        pos[above] = index;
        index = parent;
    }
    heap[index] = var;
    pos[var] = index;
}

static void sift_down(Cdcl *s, int32_t index)
{
    int32_t *heap = s->heap, *pos = s->heap_pos;
    const double *act = s->activity;
    int32_t size = s->heap_size;
    int32_t var = heap[index];
    double score = act[var];
    for (;;) {
        int32_t child = 2 * index + 1, right, below;
        double below_score;
        if (child >= size)
            break;
        below = heap[child];
        below_score = act[below];
        right = child + 1;
        if (right < size) {
            int32_t other = heap[right];
            double other_score = act[other];
            if (other_score > below_score
                    || (other_score == below_score && other < below)) {
                child = right;
                below = other;
                below_score = other_score;
            }
        }
        if (score > below_score || (score == below_score && var < below))
            break;
        heap[index] = below;
        pos[below] = index;
        index = child;
    }
    heap[index] = var;
    pos[var] = index;
}

static void heap_insert(Cdcl *s, int32_t var)
{
    s->heap[s->heap_size++] = var;
    sift_up(s, s->heap_size - 1);
}

static int32_t heap_pop(Cdcl *s)
{
    int32_t top = s->heap[0];
    int32_t last = s->heap[--s->heap_size];
    s->heap_pos[top] = -1;
    if (s->heap_size) {
        s->heap[0] = last;
        sift_down(s, 0);
    }
    return top;
}

static void rescale_activity(Cdcl *s)
{
    int32_t v, index;
    for (v = 1; v <= s->nv; v++)
        s->activity[v] *= 1e-100;
    s->var_inc *= 1e-100;
    for (index = s->heap_size / 2 - 1; index >= 0; index--)
        sift_down(s, index);
}

/* ---- lifecycle ---- */

void cdcl_free(Cdcl *s)
{
    int32_t code;
    if (s == NULL)
        return;
    if (s->watches != NULL)
        for (code = 0; code < 2 * (s->cap + 1); code++)
            free(s->watches[code].refs);
    free(s->value);
    free(s->phase);
    free(s->level);
    free(s->reason);
    free(s->activity);
    free(s->seen);
    free(s->heap);
    free(s->heap_pos);
    free(s->trail);
    free(s->learnt);
    free(s->minimized);
    free(s->core);
    free(s->watches);
    free(s->trail_lim);
    free(s->stamp);
    free(s->mem);
    free(s->clauses);
    free(s->learnts);
    free(s->assumed);
    free(s);
}

Cdcl *cdcl_new(void)
{
    Cdcl *s = calloc(1, sizeof *s);
    if (s == NULL)
        return NULL;
    s->var_inc = 1.0;
    s->var_decay = 0.95;
    s->cla_inc = 1.0;
    s->cla_decay = 0.999;
    if (reserve(s, 16) < 0) {
        cdcl_free(s);
        return NULL;
    }
    return s;
}

/* Variables 1..nv exist afterwards; new ones enter the heap in order. */
int cdcl_grow(Cdcl *s, int32_t nv)
{
    int32_t v;
    if (nv <= s->nv)
        return 0;
    if (nv > s->cap) {
        int64_t cap = (int64_t)s->cap * 2;
        if (cap < nv)
            cap = nv;
        if (cap > INT32_MAX / 2 - 1 || reserve(s, (int32_t)cap) < 0) {
            s->oom = 1;
            return -1;
        }
    }
    for (v = s->nv + 1; v <= nv; v++)
        heap_insert(s, v);
    s->nv = nv;
    return 0;
}

/* ---- assignment ---- */

static inline void assign(Cdcl *s, int32_t code, int32_t reason)
{
    int32_t var = code >> 1;
    s->value[code] = L_TRUE;
    s->value[code ^ 1] = L_FALSE;
    s->level[var] = s->lim_size;
    s->reason[var] = reason;
    s->phase[var] = !(code & 1);
    s->trail[s->trail_size++] = code;
}

static void enqueue(Cdcl *s, int32_t code, int32_t reason)
{
    if (s->value[code] == L_UNDEF)
        assign(s, code, reason);
}

static void new_level(Cdcl *s)
{
    if (s->lim_size == s->lim_cap) {
        int32_t grown = s->lim_cap ? s->lim_cap * 2 : 64;
        if (resize((void **)&s->trail_lim, (size_t)grown * 4) < 0
                || resize((void **)&s->stamp, ((size_t)grown + 1) * 8) < 0) {
            s->oom = 1;
            return;
        }
        memset(s->stamp + s->lim_cap, 0,
               ((size_t)grown + 1 - (size_t)s->lim_cap) * 8);
        s->lim_cap = grown;
    }
    s->trail_lim[s->lim_size++] = s->trail_size;
}

void cdcl_cancel(Cdcl *s, int32_t target)
{
    int32_t boundary, i;
    if (s->lim_size <= target)
        return;
    boundary = s->trail_lim[target];
    for (i = s->trail_size - 1; i >= boundary; i--) {
        int32_t code = s->trail[i], var = code >> 1;
        s->value[code] = L_UNDEF;
        s->value[code ^ 1] = L_UNDEF;
        s->reason[var] = -1;
        if (s->heap_pos[var] < 0)
            heap_insert(s, var);
    }
    s->trail_size = boundary;
    s->lim_size = target;
    s->qhead = boundary;
}

/* ---- clauses ---- */

static int32_t clause_new(Cdcl *s, const int32_t *lits, int32_t n)
{
    int64_t need = clause_words(n), ref;
    if (s->mem_size + need > s->mem_cap) {
        int64_t cap = s->mem_cap * 2;
        if (cap < s->mem_size + need)
            cap = s->mem_size + need;
        if (cap < 1024)
            cap = 1024;
        if (cap > INT32_MAX)
            cap = INT32_MAX;
        if (s->mem_size + need > cap
                || resize((void **)&s->mem, (size_t)cap * 4) < 0) {
            s->oom = 1;
            return -1;
        }
        s->mem_cap = cap;
    }
    ref = s->mem_size;
    s->mem[ref] = n;
    s->mem[ref + 1] = 0;
    set_act(s->mem, (int32_t)ref, 0.0);
    memcpy(s->mem + ref + C_HEAD, lits, (size_t)n * 4);
    s->mem_size += need;
    return (int32_t)ref;
}

/* A root unit (n == 1) is enqueued; a longer clause is stored and
 * watched.  Root simplification is the caller's. */
int cdcl_add(Cdcl *s, const int32_t *codes, int32_t n)
{
    int32_t ref;
    if (n == 1) {
        enqueue(s, codes[0], -1);
        return 0;
    }
    ref = clause_new(s, codes, n);
    if (ref < 0)
        return -1;
    push(s, &s->clauses, &s->n_clauses, &s->clauses_cap, ref);
    watch(s, codes[0], ref);
    watch(s, codes[1], ref);
    return s->oom ? -1 : 0;
}

/* ---- propagation ---- */

static int32_t propagate(Cdcl *s)
{
    int8_t *value = s->value;
    int32_t *trail = s->trail, *mem = s->mem;
    int32_t start = s->qhead, qhead = start, conflict = -1;
    while (qhead < s->trail_size) {
        int32_t false_lit = trail[qhead++] ^ 1;
        CdclWatch *wl = &s->watches[false_lit];
        int32_t size = wl->size, read = 0, kept = 0;
        int32_t *w = wl->refs;
        while (read < size) {
            int32_t ref = w[read++];
            int32_t *lits = mem + ref + C_HEAD;
            int32_t first = lits[0], n, k;
            /* Normalize so the falsified literal sits at position 1. */
            if (first == false_lit) {
                first = lits[1];
                lits[0] = first;
                lits[1] = false_lit;
            }
            if (value[first] == L_TRUE) {
                w[kept++] = ref;
                continue;
            }
            n = mem[ref];
            for (k = 2; k < n; k++) {
                int32_t lit = lits[k];
                if (value[lit] != L_FALSE) {
                    lits[1] = lit;
                    lits[k] = false_lit;
                    watch(s, lit, ref);
                    break;
                }
            }
            if (k < n)
                continue;
            w[kept++] = ref;
            if (value[first] == L_FALSE) {
                conflict = ref;
                while (read < size)
                    w[kept++] = w[read++];
                break;
            }
            assign(s, first, ref);
        }
        wl->size = kept;
        if (conflict >= 0)
            break;
    }
    s->qhead = qhead;
    s->propagations += qhead - start;
    return conflict;
}

/* ---- conflict analysis ---- */

/* Is code implied by the other learnt literals (local check)?  The
 * learnt clause's variables are the ones marked in seen. */
static int redundant(const Cdcl *s, int32_t code)
{
    int32_t var = code >> 1, ref = s->reason[var], k, n;
    const int32_t *lits;
    if (ref < 0)
        return 0;
    n = s->mem[ref];
    lits = s->mem + ref + C_HEAD;
    for (k = 0; k < n; k++) {
        int32_t other = lits[k] >> 1;
        if (other == var || s->level[other] == 0 || s->seen[other])
            continue;
        return 0;
    }
    return 1;
}

/* First-UIP learning into s->minimized; returns the clause length and
 * stores the backjump level. */
static int32_t analyze(Cdcl *s, int32_t conflict, int32_t *backjump)
{
    int32_t *learnt = s->learnt, *out = s->minimized;
    int32_t *mem = s->mem, *level = s->level, *trail = s->trail;
    uint8_t *seen = s->seen;
    double *act = s->activity;
    int32_t n = 1, m, counter = 0, resolved = -1, ref = conflict;
    int32_t trail_index = s->trail_size - 1, current = s->lim_size, k;

    for (;;) {
        int32_t size = mem[ref];
        const int32_t *lits = mem + ref + C_HEAD;
        /* Only learnt activity is ever read (reduce_db), and only
         * learnt clauses are rescaled, so only they are bumped. */
        if (mem[ref + 1] & C_LEARNT) {
            double bumped = get_act(mem, ref) + s->cla_inc;
            set_act(mem, ref, bumped);
            if (bumped > 1e20) {
                for (k = 0; k < s->n_learnts; k++) {
                    int32_t c = s->learnts[k];
                    set_act(mem, c, get_act(mem, c) * 1e-20);
                }
                s->cla_inc *= 1e-20;
            }
        }
        for (k = 0; k < size; k++) {
            int32_t q = lits[k], var = q >> 1;
            /* Skip the literal this clause asserted. */
            if (q == resolved)
                continue;
            if (!seen[var] && level[var] > 0) {
                double score = act[var] + s->var_inc;
                seen[var] = 1;
                act[var] = score;
                if (score > 1e100)
                    rescale_activity(s);
                else if (s->heap_pos[var] >= 0)
                    sift_up(s, s->heap_pos[var]);
                if (level[var] >= current)
                    counter++;
                else
                    learnt[n++] = q;
            }
        }
        while (!seen[trail[trail_index] >> 1])
            trail_index--;
        resolved = trail[trail_index--];
        seen[resolved >> 1] = 0;
        if (--counter == 0)
            break;
        ref = s->reason[resolved >> 1];
    }
    learnt[0] = resolved ^ 1;

    /* Minimization: drop literals implied by the rest. */
    seen[resolved >> 1] = 1;
    out[0] = learnt[0];
    m = 1;
    for (k = 1; k < n; k++)
        if (!redundant(s, learnt[k]))
            out[m++] = learnt[k];
    for (k = 0; k < n; k++)
        seen[learnt[k] >> 1] = 0;

    if (m == 1) {
        *backjump = 0;
    } else {
        /* Second-highest decision level in the clause. */
        int32_t max_index = 1, t;
        for (k = 2; k < m; k++)
            if (level[out[k] >> 1] > level[out[max_index] >> 1])
                max_index = k;
        t = out[1];
        out[1] = out[max_index];
        out[max_index] = t;
        *backjump = level[out[1] >> 1];
    }
    return m;
}

/* Number of distinct decision levels among lits. */
static int32_t lbd(Cdcl *s, const int32_t *lits, int32_t n)
{
    int64_t gen = ++s->stamp_gen;
    int32_t k, count = 0;
    for (k = 0; k < n; k++) {
        int32_t lv = s->level[lits[k] >> 1];
        if (s->stamp[lv] != gen) {
            s->stamp[lv] = gen;
            count++;
        }
    }
    return count;
}

/* MiniSat's analyzeFinal: the assumption codes implying -failed, failed
 * first, into s->core. */
static void final_conflict(Cdcl *s, int32_t failed)
{
    int32_t i, k;
    s->core[0] = failed;
    s->n_core = 1;
    if (!s->lim_size)
        return;
    s->seen[failed >> 1] = 1;
    for (i = s->trail_size - 1; i >= s->trail_lim[0]; i--) {
        int32_t code = s->trail[i], var = code >> 1, ref;
        if (!s->seen[var])
            continue;
        ref = s->reason[var];
        if (ref < 0) {
            /* A decision inside the assumption prefix is an assumption. */
            if (s->level[var] > 0 && code != failed)
                s->core[s->n_core++] = code;
        } else {
            const int32_t *lits = s->mem + ref + C_HEAD;
            for (k = 0; k < s->mem[ref]; k++) {
                int32_t other = lits[k] >> 1;
                if (other != var && s->level[other] > 0)
                    s->seen[other] = 1;
            }
        }
        s->seen[var] = 0;
    }
    s->seen[failed >> 1] = 0;
}

/* ---- learnt-database reduction ---- */

/* Sort order of the reduction: LBD ascending, activity descending. */
static inline int before(const int32_t *mem, int32_t a, int32_t b)
{
    int32_t la = get_lbd(mem, a), lb = get_lbd(mem, b);
    if (la != lb)
        return la < lb;
    return get_act(mem, a) > get_act(mem, b);
}

/* Stable bottom-up merge sort of the learnt list. */
static int sort_learnts(Cdcl *s)
{
    int32_t n = s->n_learnts, width, lo, *src = s->learnts, *dst, *tmp;
    const int32_t *mem = s->mem;
    if (n < 2)
        return 0;
    tmp = malloc((size_t)n * 4);
    if (tmp == NULL)
        return -1;
    dst = tmp;
    for (width = 1; width < n; width *= 2) {
        for (lo = 0; lo < n; lo += 2 * width) {
            int32_t mid = lo + width < n ? lo + width : n;
            int32_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int32_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                dst[k++] = before(mem, src[j], src[i]) ? src[j++] : src[i++];
            while (i < mid)
                dst[k++] = src[i++];
            while (j < hi)
                dst[k++] = src[j++];
        }
        tmp = src;
        src = dst;
        dst = tmp;
    }
    if (src != s->learnts) {
        memcpy(s->learnts, src, (size_t)n * 4);
        free(src);
    } else {
        free(dst);
    }
    return 0;
}

/* Move every live clause to a fresh arena and update each reference. */
static void compact(Cdcl *s)
{
    int64_t live = s->mem_size - s->wasted, at = 0, cap = live + live / 2;
    int32_t *fresh, *mem = s->mem, *lists[2], counts[2], l, i, code;
    if (cap < 1024)
        cap = 1024;
    fresh = malloc((size_t)cap * 4);
    if (fresh == NULL)
        return;  /* keep the garbage; nothing is wrong */
    lists[0] = s->clauses;
    counts[0] = s->n_clauses;
    lists[1] = s->learnts;
    counts[1] = s->n_learnts;
    for (l = 0; l < 2; l++)
        for (i = 0; i < counts[l]; i++) {
            int32_t ref = lists[l][i];
            int64_t words = clause_words(mem[ref]);
            memcpy(fresh + at, mem + ref, (size_t)words * 4);
            mem[ref + 2] = (int32_t)at;  /* forward address */
            lists[l][i] = (int32_t)at;
            at += words;
        }
    for (code = 2; code < 2 * (s->nv + 1); code++) {
        CdclWatch *w = &s->watches[code];
        for (i = 0; i < w->size; i++)
            w->refs[i] = mem[w->refs[i] + 2];
    }
    for (i = 0; i < s->trail_size; i++) {
        int32_t var = s->trail[i] >> 1;
        if (s->reason[var] >= 0)
            s->reason[var] = mem[s->reason[var] + 2];
    }
    free(mem);
    s->mem = fresh;
    s->mem_size = at;
    s->mem_cap = cap;
    s->wasted = 0;
}

static void reduce_db(Cdcl *s)
{
    int32_t *mem, keep, i, j = 0, code, removed = 0;
    if (sort_learnts(s) < 0) {
        s->oom = 1;
        return;
    }
    mem = s->mem;
    keep = s->n_learnts / 2;
    for (i = 0; i < s->trail_size; i++) {
        int32_t ref = s->reason[s->trail[i] >> 1];
        if (ref >= 0)
            mem[ref + 1] |= C_LOCKED;
    }
    for (i = 0; i < s->n_learnts; i++) {
        int32_t ref = s->learnts[i];
        if (i < keep || mem[ref] <= 2 || (mem[ref + 1] & C_LOCKED)) {
            s->learnts[j++] = ref;
        } else {
            mem[ref + 1] |= C_DELETED;
            s->wasted += clause_words(mem[ref]);
            removed++;
        }
    }
    for (i = 0; i < s->trail_size; i++) {
        int32_t ref = s->reason[s->trail[i] >> 1];
        if (ref >= 0)
            mem[ref + 1] &= ~C_LOCKED;
    }
    s->n_learnts = j;
    if (removed)
        for (code = 2; code < 2 * (s->nv + 1); code++) {
            CdclWatch *w = &s->watches[code];
            int32_t kept = 0;
            for (i = 0; i < w->size; i++)
                if (!(mem[w->refs[i] + 1] & C_DELETED))
                    w->refs[kept++] = w->refs[i];
            w->size = kept;
        }
    if (s->wasted * 2 > s->mem_size)
        compact(s);
}

/* ---- search ---- */

static int64_t luby(int64_t index)
{
    for (;;) {
        int k = 0;
        while (((int64_t)1 << k) <= index)
            k++;
        if (((int64_t)1 << k) - 1 == index)
            return (int64_t)1 << (k - 1);
        index -= ((int64_t)1 << (k - 1)) - 1;
    }
}

/* Begin one solve call: reset the counters, keep the assumption codes
 * and propagate the root.  CDCL_ROOT_UNSAT when the root conflicts,
 * else CDCL_PAUSE. */
int cdcl_start(Cdcl *s, const int32_t *assumed, int32_t n)
{
    int32_t i;
    if (s->oom)
        return CDCL_NOMEM;
    s->conflicts = s->decisions = s->propagations = 0;
    s->restarts = s->learnt_clauses = 0;
    s->n_assumed = 0;
    for (i = 0; i < n; i++)
        push(s, &s->assumed, &s->n_assumed, &s->assumed_cap, assumed[i]);
    s->restart_index = 1;
    s->until_restart = 100 * luby(1);
    s->since_restart = 0;
    s->max_learnts = s->n_clauses / 3 > 1000 ? s->n_clauses / 3 : 1000;
    if (s->oom)
        return CDCL_NOMEM;
    return propagate(s) >= 0 ? CDCL_ROOT_UNSAT : CDCL_PAUSE;
}

/* Run the search until an answer, the conflict limit (-1: none) or the
 * next 256-conflict mark. */
int cdcl_run(Cdcl *s, int64_t conflict_limit)
{
    for (;;) {
        int32_t conflict;
        if (s->oom)
            return CDCL_NOMEM;
        conflict = propagate(s);
        if (conflict >= 0) {
            int32_t n, backjump;
            s->conflicts++;
            s->since_restart++;
            if (!s->lim_size)
                return CDCL_ROOT_UNSAT;
            n = analyze(s, conflict, &backjump);
            cdcl_cancel(s, backjump);
            if (n == 1) {
                enqueue(s, s->minimized[0], -1);
            } else {
                int32_t clause_lbd = lbd(s, s->minimized, n);
                int32_t ref = clause_new(s, s->minimized, n);
                if (ref < 0)
                    return CDCL_NOMEM;
                s->mem[ref + 1] |= C_LEARNT | clause_lbd << 3;
                push(s, &s->learnts, &s->n_learnts, &s->learnts_cap, ref);
                s->learnt_clauses++;
                watch(s, s->minimized[0], ref);
                watch(s, s->minimized[1], ref);
                enqueue(s, s->minimized[0], ref);
            }
            s->var_inc /= s->var_decay;
            s->cla_inc /= s->cla_decay;
            if (conflict_limit >= 0 && s->conflicts >= conflict_limit)
                return CDCL_LIMIT;
            if ((s->conflicts & 255) == 0)
                return CDCL_PAUSE;
        } else {
            int32_t next = 0, failed = 0;
            if (s->since_restart >= s->until_restart) {
                s->restarts++;
                s->restart_index++;
                s->until_restart = 100 * luby(s->restart_index);
                s->since_restart = 0;
                cdcl_cancel(s, 0);
                continue;
            }
            if (s->n_learnts > s->max_learnts + s->trail_size) {
                reduce_db(s);
                s->max_learnts = (int64_t)((double)s->max_learnts * 1.1);
            }
            /* Replay assumptions as decisions at levels 1..k. */
            while (s->lim_size < s->n_assumed) {
                int32_t p = s->assumed[s->lim_size];
                if (s->value[p] == L_TRUE) {
                    /* Already implied: a dummy level keeps the
                     * level <-> assumption-index correspondence. */
                    new_level(s);
                    if (s->oom)
                        return CDCL_NOMEM;
                } else if (s->value[p] == L_FALSE) {
                    failed = p;
                    break;
                } else {
                    next = p;
                    break;
                }
            }
            if (failed) {
                final_conflict(s, failed);
                return CDCL_UNSAT;
            }
            if (!next) {
                int32_t var = 0;
                while (s->heap_size) {
                    var = heap_pop(s);
                    if (s->value[2 * var] == L_UNDEF)
                        break;
                    var = 0;
                }
                if (!var)
                    return CDCL_SAT;
                s->decisions++;
                next = s->phase[var] ? 2 * var : 2 * var + 1;
            }
            new_level(s);
            if (s->oom)
                return CDCL_NOMEM;
            assign(s, next, -1);
        }
    }
}
"""
