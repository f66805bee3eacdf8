"""A conflict-driven clause-learning (CDCL) SAT solver.

Plays the role MiniSat [7] plays in the paper: the generic proof engine
behind the SAT-based synthesis baseline [9] and the target of the
expansion-based QBF solver.  The implementation follows the standard
MiniSat architecture:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with recursive clause minimization,
* VSIDS decision heuristic with phase saving, over an indexed binary
  max-heap of variables,
* Luby-sequence restarts,
* activity/LBD-guided learnt-clause database reduction,
* incremental solving under assumptions: ``solve(assumptions=[...])``
  treats each assumption as a forced decision at levels ``1..k`` and
  reports a final-conflict subset (``SatResult.core``) when they are
  inconsistent; ``add_clause`` extends the formula between calls while
  learnt clauses, VSIDS activity and saved phases survive.

The public API speaks DIMACS literals (``v`` / ``-v``): clauses,
assumptions, the model and the core.  Inside the solver a literal is
*coded* as ``2v`` (positive) or ``2v + 1`` (negative), so negation is
``code ^ 1``, the variable is ``code >> 1``, and the value array and the
watch lists are indexed by the code.

**Two implementations of one search.**  When the native kernel is
available (:func:`repro.bdd.tables.load_cdcl_kernel`), the search loop —
propagation, conflict analysis, activity bumps, backtracking, decisions,
learnt-clause attachment and the database reduction — runs in C
(:mod:`repro.sat.kernel`) over solver state the C side owns.  Otherwise
the pure-Python loops below run; they are the reference, and the C code
is their transcription: both make the same search decision for
decision, so every count in ``SatResult`` is the same either way.  In
both cases Python keeps the API, the root simplification of
``add_clause``, the model and core hand-off, and the policy: the native
loop returns every 256 conflicts and at the conflict limit, so ``tick``
and the deadline run where the Python loop runs them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bdd.tables import load_cdcl_kernel
from repro.sat.cnf import Cnf

__all__ = ["SatResult", "CdclSolver", "solve_cnf", "luby"]

_UNDEF = 0
_TRUE = 1
_FALSE = -1


def luby(index: int) -> int:
    """The Luby restart sequence 1 1 2 1 1 2 4 1 1 2 ... (1-based index)."""
    if index < 1:
        raise ValueError("Luby index is 1-based")
    while True:
        k = index.bit_length()
        if (1 << k) - 1 == index:
            return 1 << (k - 1)
        index -= (1 << (k - 1)) - 1


def _code(lit: int) -> int:
    """DIMACS literal -> internal code."""
    return 2 * lit if lit > 0 else 1 - 2 * lit


def _dimacs(code: int) -> int:
    """Internal code -> DIMACS literal."""
    return -(code >> 1) if code & 1 else code >> 1


@dataclass
class SatResult:
    """Outcome of one SAT call.

    Every :meth:`CdclSolver.solve` call returns a *fresh* instance, so
    holding on to the result of call N is safe across call N+1 (the
    one-shot solver aliased a single object across calls, which made
    re-solving report corrupted statistics).

    ``core`` is only populated for assumption-based calls that come back
    ``unsat``: it is a subset of the given assumption literals whose
    conjunction with the formula is contradictory (MiniSat's
    ``analyzeFinal``).  An empty list means the formula is unsat
    regardless of the assumptions.
    """

    status: str  # "sat", "unsat" or "unknown"
    model: Optional[Dict[int, bool]] = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learnt_clauses: int = 0
    runtime: float = 0.0
    core: Optional[List[int]] = None

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"


class _Clause:
    """Clause container over coded literals; the first two are watched."""

    __slots__ = ("literals", "learnt", "activity", "lbd")

    def __init__(self, literals: List[int], learnt: bool):
        self.literals = literals
        self.learnt = learnt
        self.activity = 0.0
        self.lbd = 0


class CdclSolver:
    """Incremental CDCL solver over a :class:`~repro.sat.cnf.Cnf`.

    The solver object stays live across calls: ``solve()`` always
    returns with the trail cancelled back to the root level, so the
    caller may interleave :meth:`add_clause` / :meth:`ensure_vars` with
    further ``solve(assumptions=...)`` calls and every learnt clause,
    activity score and saved phase carries over.

    Decisions take the unassigned variable of highest activity, the
    smallest index on ties.  The decision heap holds every unassigned
    variable (plus assigned ones not yet popped) ordered that way; its
    position array lets a bump move a variable up in place and lets
    backtracking re-insert only the variables that are absent.

    ``use_kernel=None`` runs the search in the native kernel when it is
    available; ``False`` forces the pure-Python loops, ``True`` requires
    the kernel.  On the native path the C side owns the search state and
    ``value`` is a view of its value array (same codes, same 1/-1/0
    encoding); the pure-Python internals (watch lists, heap, trail) do
    not exist.
    """

    def __init__(self, cnf: Optional[Cnf] = None,
                 use_kernel: Optional[bool] = None):
        self.nv = 0
        self._contradiction = False
        self.stats = SatResult(status="unknown")
        self._native = None
        if use_kernel or use_kernel is None:
            ffi, lib = load_cdcl_kernel()
            if ffi is not None:
                native = lib.cdcl_new()
                if native == ffi.NULL:
                    raise MemoryError("cannot allocate the native solver")
                self._ffi, self._lib = ffi, lib
                self._native = ffi.gc(native, lib.cdcl_free)
                self.value = self._native.value
            elif use_kernel:
                raise RuntimeError("native kernel unavailable "
                                   "(no cffi/C compiler, or REPRO_BDD_KERNEL=0)")
        if self._native is None:
            self._init_python()
        if cnf is not None:
            self.ensure_vars(cnf.num_vars)
            for clause in cnf.clauses:
                self.add_clause(clause)

    def _init_python(self) -> None:
        # Per literal code (index 0/1 is the unused variable 0).
        self.value: List[int] = [_UNDEF, _UNDEF]
        self.watches: List[List[_Clause]] = [[], []]
        # Per variable.
        self.level: List[int] = [0]
        self.reason: List[Optional[_Clause]] = [None]
        self.activity: List[float] = [0.0]
        self.saved_phase: List[bool] = [False]
        self._seen: List[bool] = [False]
        self._heap: List[int] = []
        self._heap_pos: List[int] = [-1]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.clauses: List[_Clause] = []
        self.learnts: List[_Clause] = []
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.cla_inc = 1.0
        self.cla_decay = 0.999

    # -- variable management -----------------------------------------------------

    def ensure_vars(self, num_vars: int) -> None:
        """Grow the variable arrays so variables ``1..num_vars`` exist."""
        if num_vars <= self.nv:
            return
        if self._native is not None:
            if self._lib.cdcl_grow(self._native, num_vars) < 0:
                raise MemoryError("native solver out of memory")
            self.value = self._native.value  # the array may have moved
            self.nv = num_vars
            return
        grow = num_vars - self.nv
        self.value.extend([_UNDEF] * (2 * grow))
        self.watches.extend([] for _ in range(2 * grow))
        self.level.extend([0] * grow)
        self.reason.extend([None] * grow)
        self.activity.extend([0.0] * grow)
        self.saved_phase.extend([False] * grow)
        self._seen.extend([False] * grow)
        self._heap_pos.extend([-1] * grow)
        for v in range(self.nv + 1, num_vars + 1):
            self._heap_insert(v)
        self.nv = num_vars

    def new_var(self) -> int:
        """Allocate one fresh variable and return its index."""
        self.ensure_vars(self.nv + 1)
        return self.nv

    @property
    def num_clauses(self) -> int:
        if self._native is not None:
            return self._native.n_clauses
        return len(self.clauses)

    @property
    def num_learnts(self) -> int:
        if self._native is not None:
            return self._native.n_learnts
        return len(self.learnts)

    # -- decision heap -------------------------------------------------------------

    def _sift_up(self, index: int) -> None:
        heap = self._heap
        pos = self._heap_pos
        act = self.activity
        var = heap[index]
        score = act[var]
        while index > 0:
            parent = (index - 1) >> 1
            above = heap[parent]
            above_score = act[above]
            if above_score > score or (above_score == score and above < var):
                break
            heap[index] = above
            pos[above] = index
            index = parent
        heap[index] = var
        pos[var] = index

    def _sift_down(self, index: int) -> None:
        heap = self._heap
        pos = self._heap_pos
        act = self.activity
        size = len(heap)
        var = heap[index]
        score = act[var]
        while True:
            child = 2 * index + 1
            if child >= size:
                break
            below = heap[child]
            below_score = act[below]
            right = child + 1
            if right < size:
                other = heap[right]
                other_score = act[other]
                if other_score > below_score or (other_score == below_score
                                                 and other < below):
                    child, below, below_score = right, other, other_score
            if score > below_score or (score == below_score and var < below):
                break
            heap[index] = below
            pos[below] = index
            index = child
        heap[index] = var
        pos[var] = index

    def _heap_insert(self, var: int) -> None:
        self._heap.append(var)
        self._sift_up(len(self._heap) - 1)

    def _heap_pop(self) -> int:
        heap = self._heap
        top = heap[0]
        last = heap.pop()
        self._heap_pos[top] = -1
        if heap:
            heap[0] = last
            self._sift_down(0)
        return top

    def _rescale_activity(self) -> None:
        """Scale every activity by 1e-100 and restore the heap order.

        Scaling is monotone but may round distinct scores to one value,
        so the heap is re-sifted rather than assumed still ordered.
        """
        act = self.activity
        for v in range(1, self.nv + 1):
            act[v] *= 1e-100
        self.var_inc *= 1e-100
        for index in range(len(self._heap) // 2 - 1, -1, -1):
            self._sift_down(index)

    # -- clause management -------------------------------------------------------

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add a problem clause; may be called between ``solve()`` calls.

        The clause is simplified against the root-level assignment
        (root-satisfied clauses are dropped, root-false literals are
        removed — both are sound because root assignments are
        permanent).  Returns ``False`` when the addition makes the
        formula contradictory at the root.
        """
        if self._contradiction:
            return False
        native = self._native
        if native is None:  # solve() leaves the native solver at the root
            self._cancel_until(0)
        seen = set()
        cleaned: List[int] = []
        for lit in literals:
            var = abs(lit)
            if var > self.nv:
                self.ensure_vars(var)
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            code = _code(lit)
            value = self.value[code]
            if value == _TRUE:
                return True  # root-satisfied
            if value == _FALSE:
                continue  # root-false literal drops out
            seen.add(lit)
            cleaned.append(code)
        if not cleaned:
            self._contradiction = True
            return False
        if native is not None:
            # A root unit cannot conflict: root-false literals were
            # dropped above.
            if self._lib.cdcl_add(native, cleaned, len(cleaned)) < 0:
                raise MemoryError("native solver out of memory")
            return True
        if len(cleaned) == 1:
            if not self._enqueue(cleaned[0], None):
                self._contradiction = True
                return False
            return True
        clause = _Clause(cleaned, learnt=False)
        self.clauses.append(clause)
        self._watch(clause)
        return True

    def _watch(self, clause: _Clause) -> None:
        self.watches[clause.literals[0]].append(clause)
        self.watches[clause.literals[1]].append(clause)

    # -- assignment --------------------------------------------------------------

    def _enqueue(self, code: int, reason: Optional[_Clause]) -> bool:
        current = self.value[code]
        if current == _TRUE:
            return True
        if current == _FALSE:
            return False
        var = code >> 1
        self.value[code] = _TRUE
        self.value[code ^ 1] = _FALSE
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.saved_phase[var] = not code & 1
        self.trail.append(code)
        return True

    def _cancel_until(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        value = self.value
        reason = self.reason
        pos = self._heap_pos
        boundary = self.trail_lim[target_level]
        for code in reversed(self.trail[boundary:]):
            var = code >> 1
            value[code] = _UNDEF
            value[code ^ 1] = _UNDEF
            reason[var] = None
            if pos[var] < 0:
                self._heap_insert(var)
        del self.trail[boundary:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    # -- propagation -----------------------------------------------------------------

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation; returns the conflicting clause, if any.

        Each watch list is compacted in place: clauses that keep their
        watch are written back in their original order, clauses whose
        watch moved are appended to the new literal's list.
        """
        trail = self.trail
        value = self.value
        watches = self.watches
        level = self.level
        reason = self.reason
        phase = self.saved_phase
        depth = len(self.trail_lim)
        start = qhead = self.qhead
        conflict: Optional[_Clause] = None
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watchers = watches[false_lit]
            size = len(watchers)
            if not size:
                continue
            read = kept = 0
            while read < size:
                clause = watchers[read]
                read += 1
                lits = clause.literals
                # Normalize so the falsified literal sits at position 1.
                first = lits[0]
                if first == false_lit:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = false_lit
                if value[first] == _TRUE:
                    watchers[kept] = clause
                    kept += 1
                    continue
                # Look for a new literal to watch.
                for k in range(2, len(lits)):
                    lit = lits[k]
                    if value[lit] != _FALSE:
                        lits[1] = lit
                        lits[k] = false_lit
                        watches[lit].append(clause)
                        break
                else:
                    watchers[kept] = clause
                    kept += 1
                    if value[first] == _FALSE:
                        conflict = clause
                        while read < size:
                            watchers[kept] = watchers[read]
                            kept += 1
                            read += 1
                        break
                    var = first >> 1
                    value[first] = _TRUE
                    value[first ^ 1] = _FALSE
                    level[var] = depth
                    reason[var] = clause
                    phase[var] = not first & 1
                    trail.append(first)
            del watchers[kept:]
            if conflict is not None:
                break
        self.qhead = qhead
        self.stats.propagations += qhead - start
        return conflict

    # -- conflict analysis ----------------------------------------------------------------

    def _analyze(self, conflict: _Clause) -> Tuple[List[int], int]:
        """First-UIP learning; returns (learnt clause, backjump level)."""
        seen = self._seen
        level = self.level
        reasons = self.reason
        trail = self.trail
        act = self.activity
        pos = self._heap_pos
        var_inc = self.var_inc
        cla_inc = self.cla_inc
        learnt: List[int] = [0]  # placeholder for the asserting literal
        counter = 0
        resolved = -1  # the trail literal whose reason is being read
        reason: Optional[_Clause] = conflict
        trail_index = len(trail) - 1
        current_level = len(self.trail_lim)

        while True:
            assert reason is not None
            # Only learnt activity is ever read (_reduce_db), and only
            # learnt clauses are rescaled, so only they are bumped.
            if reason.learnt:
                reason.activity += cla_inc
                if reason.activity > 1e20:
                    for c in self.learnts:
                        c.activity *= 1e-20
                    self.cla_inc *= 1e-20
                    cla_inc = self.cla_inc
            for q in reason.literals:
                # Skip the literal this clause asserted.
                if q == resolved:
                    continue
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    score = act[var] + var_inc
                    act[var] = score
                    if score > 1e100:
                        self._rescale_activity()
                        var_inc = self.var_inc
                    elif pos[var] >= 0:
                        self._sift_up(pos[var])
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # pick next literal on the trail at the current level
            while not seen[trail[trail_index] >> 1]:
                trail_index -= 1
            resolved = trail[trail_index]
            trail_index -= 1
            seen[resolved >> 1] = False
            counter -= 1
            if counter == 0:
                break
            reason = reasons[resolved >> 1]
        learnt[0] = resolved ^ 1

        # Conflict-clause minimization: drop literals implied by the
        # rest.  ``seen`` marks exactly the learnt clause's variables.
        seen[resolved >> 1] = True
        minimized = [learnt[0]]
        for q in learnt[1:]:
            if not self._redundant(q):
                minimized.append(q)
        for q in learnt:
            seen[q >> 1] = False
        learnt = minimized

        if len(learnt) == 1:
            backjump = 0
        else:
            # Second-highest decision level in the clause.
            max_index = 1
            for k in range(2, len(learnt)):
                if level[learnt[k] >> 1] > level[learnt[max_index] >> 1]:
                    max_index = k
            learnt[1], learnt[max_index] = learnt[max_index], learnt[1]
            backjump = level[learnt[1] >> 1]
        return learnt, backjump

    def _redundant(self, code: int) -> bool:
        """Is ``code`` implied by the other learnt literals (local check)?

        The learnt clause's variables are the ones marked in ``_seen``.
        """
        var = code >> 1
        reason = self.reason[var]
        if reason is None:
            return False
        seen = self._seen
        level = self.level
        for q in reason.literals:
            other = q >> 1
            if other == var or level[other] == 0 or seen[other]:
                continue
            return False
        return True

    def _final_conflict(self, failed: int) -> List[int]:
        """MiniSat ``analyzeFinal``: assumptions implying ``-failed``.

        Called when replaying the assumption coded ``failed`` finds it
        already false.  Walks the trail's implication reasons back to
        the assumption decisions and returns the subset of assumption
        literals (including ``failed``, all in DIMACS form) whose
        conjunction is contradictory with the formula.
        """
        core = [_dimacs(failed)]
        if not self.trail_lim:
            return core
        seen = [False] * (self.nv + 1)
        seen[failed >> 1] = True
        for index in range(len(self.trail) - 1, self.trail_lim[0] - 1, -1):
            code = self.trail[index]
            var = code >> 1
            if not seen[var]:
                continue
            reason = self.reason[var]
            if reason is None:
                # A decision inside the assumption prefix is an
                # assumption literal itself.
                if self.level[var] > 0 and code != failed:
                    core.append(_dimacs(code))
            else:
                for q in reason.literals:
                    if q >> 1 != var and self.level[q >> 1] > 0:
                        seen[q >> 1] = True
            seen[var] = False
        return core

    def _compute_lbd(self, literals: Sequence[int]) -> int:
        return len({self.level[code >> 1] for code in literals})

    # -- decisions --------------------------------------------------------------------------

    def _pick_branch_var(self) -> int:
        value = self.value
        while self._heap:
            var = self._heap_pop()
            if value[2 * var] == _UNDEF:
                return var
        return 0

    # -- learnt DB reduction ------------------------------------------------------------------

    def _reduce_db(self) -> None:
        self.learnts.sort(key=lambda c: (c.lbd, -c.activity))
        keep = len(self.learnts) // 2
        locked = {id(self.reason[code >> 1]) for code in self.trail
                  if self.reason[code >> 1] is not None}
        retained: List[_Clause] = []
        dropped = set()
        touched = set()
        for index, clause in enumerate(self.learnts):
            if index < keep or len(clause.literals) <= 2 or id(clause) in locked:
                retained.append(clause)
            else:
                dropped.add(id(clause))
                touched.update(clause.literals[:2])
        # One order-keeping filter per affected watch list; the dropped
        # clauses are still referenced from ``self.learnts`` here, so
        # their ids cannot be reused.
        for code in touched:
            self.watches[code] = [c for c in self.watches[code]
                                  if id(c) not in dropped]
        self.learnts = retained

    # -- main loop ---------------------------------------------------------------------------------

    def solve(self, conflict_limit: Optional[int] = None,
              time_limit: Optional[float] = None,
              tick: Optional[Callable[[], None]] = None,
              assumptions: Optional[Sequence[int]] = None) -> SatResult:
        """Run the CDCL search; reusable across calls.

        ``assumptions`` are literals forced as the first decisions
        (MiniSat-style: one decision level per assumption, a dummy empty
        level when an assumption is already implied).  When they are
        contradictory with the formula the result is ``unsat`` with
        ``result.core`` holding a failed subset; the solver itself stays
        consistent and reusable — no clause permanently asserts an
        assumption.

        ``tick``, when given, is invoked at the same 256-conflict cadence
        as the deadline check (plus once before the search starts).  It
        may raise to abort the search — the parallel layer passes
        ``CancelToken.raise_if_cancelled`` so a portfolio loser stops
        cooperatively; the exception propagates to the caller.
        """
        start = time.perf_counter()
        if tick is not None:
            tick()
        assumed: List[int] = []
        for lit in assumptions or ():
            if lit == 0:
                raise ValueError("assumption literal must be non-zero")
            self.ensure_vars(abs(lit))
            assumed.append(_code(lit))
        stats = SatResult(status="unknown")
        # ``_propagate`` counts through ``self.stats``; repointing it at
        # the fresh object is what makes consecutive calls return
        # independent statistics.
        self.stats = stats
        try:
            if self._contradiction:
                stats.status = "unsat"
                stats.core = []
            elif self._native is not None:
                self._search_native(stats, assumed, conflict_limit,
                                    time_limit, tick, start)
            else:
                self._search(stats, assumed, conflict_limit, time_limit,
                             tick, start)
        finally:
            # Leave the solver at the root level so the caller can add
            # clauses and re-solve; learnt clauses, activity and phases
            # survive the cancellation.
            if self._native is not None:
                self._lib.cdcl_cancel(self._native, 0)
            else:
                self._cancel_until(0)
            stats.runtime = time.perf_counter() - start
        return stats

    def _search(self, stats: SatResult, assumed: List[int],
                conflict_limit: Optional[int], time_limit: Optional[float],
                tick: Optional[Callable[[], None]], start: float) -> None:
        """The pure-Python search loop; fills ``stats``."""
        value = self.value
        trail_lim = self.trail_lim
        if self._propagate() is not None:
            self._contradiction = True
            stats.status = "unsat"
            stats.core = []
            return
        # An already-expired budget must report "unknown" even when
        # the instance would solve in fewer conflicts than the
        # periodic in-loop deadline check (every 256 conflicts) ever
        # sees.
        if time_limit is not None and time.perf_counter() - start > time_limit:
            return

        restart_index = 1
        restart_base = 100
        conflicts_until_restart = restart_base * luby(restart_index)
        max_learnts = max(1000, len(self.clauses) // 3)
        conflicts_since_restart = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                stats.conflicts += 1
                conflicts_since_restart += 1
                if not trail_lim:
                    self._contradiction = True
                    stats.status = "unsat"
                    stats.core = []
                    return
                learnt, backjump = self._analyze(conflict)
                self._cancel_until(backjump)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    clause = _Clause(learnt, learnt=True)
                    clause.lbd = self._compute_lbd(learnt)
                    self.learnts.append(clause)
                    stats.learnt_clauses += 1
                    self._watch(clause)
                    self._enqueue(learnt[0], clause)
                self.var_inc /= self.var_decay
                self.cla_inc /= self.cla_decay
                if (conflict_limit is not None
                        and stats.conflicts >= conflict_limit):
                    return
                if (stats.conflicts & 255) == 0:
                    if tick is not None:
                        tick()
                    if (time_limit is not None
                            and time.perf_counter() - start > time_limit):
                        return
            else:
                if conflicts_since_restart >= conflicts_until_restart:
                    stats.restarts += 1
                    restart_index += 1
                    conflicts_until_restart = \
                        restart_base * luby(restart_index)
                    conflicts_since_restart = 0
                    self._cancel_until(0)
                    continue
                if len(self.learnts) > max_learnts + len(self.trail):
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.1)
                # Replay assumptions as decisions at levels 1..k before
                # any free decision (restarts and backjumps may have
                # unwound some of them).
                next_lit = 0
                failed = 0
                while len(trail_lim) < len(assumed):
                    p = assumed[len(trail_lim)]
                    if value[p] == _TRUE:
                        # Already implied: dummy level keeps the
                        # level<->assumption-index correspondence.
                        trail_lim.append(len(self.trail))
                    elif value[p] == _FALSE:
                        failed = p
                        break
                    else:
                        next_lit = p
                        break
                if failed:
                    stats.status = "unsat"
                    stats.core = self._final_conflict(failed)
                    return
                if next_lit == 0:
                    var = self._pick_branch_var()
                    if var == 0:
                        stats.status = "sat"
                        stats.model = _model(value, self.saved_phase,
                                             self.nv)
                        return
                    stats.decisions += 1
                    next_lit = 2 * var if self.saved_phase[var] \
                        else 2 * var + 1
                trail_lim.append(len(self.trail))
                self._enqueue(next_lit, None)

    def _search_native(self, stats: SatResult, assumed: List[int],
                       conflict_limit: Optional[int],
                       time_limit: Optional[float],
                       tick: Optional[Callable[[], None]],
                       start: float) -> None:
        """The same search in the kernel; Python runs the clock."""
        ffi, lib, native = self._ffi, self._lib, self._native
        status = lib.cdcl_start(native, assumed, len(assumed))
        if status == lib.CDCL_PAUSE and not (
                time_limit is not None
                and time.perf_counter() - start > time_limit):
            # A limit <= 0 stops after the first conflict, as in Python.
            limit = -1 if conflict_limit is None else max(conflict_limit, 0)
            while True:
                status = lib.cdcl_run(native, limit)
                if status != lib.CDCL_PAUSE:
                    break
                if tick is not None:
                    tick()
                if (time_limit is not None
                        and time.perf_counter() - start > time_limit):
                    break
        stats.conflicts = native.conflicts
        stats.decisions = native.decisions
        stats.propagations = native.propagations
        stats.restarts = native.restarts
        stats.learnt_clauses = native.learnt_clauses
        if status == lib.CDCL_NOMEM:
            raise MemoryError("native solver out of memory")
        if status == lib.CDCL_ROOT_UNSAT:
            self._contradiction = True
            stats.status = "unsat"
            stats.core = []
        elif status == lib.CDCL_UNSAT:
            stats.status = "unsat"
            stats.core = [_dimacs(code) for code
                          in ffi.unpack(native.core, native.n_core)]
        elif status == lib.CDCL_SAT:
            stats.status = "sat"
            stats.model = _model(ffi.unpack(native.value, 2 * self.nv + 2),
                                 ffi.unpack(native.phase, self.nv + 1),
                                 self.nv)


def _model(value: Sequence[int], phase: Sequence, nv: int) -> Dict[int, bool]:
    """The model in one pass: assigned values, saved phases elsewhere."""
    return {v: value[2 * v] == _TRUE if value[2 * v] != _UNDEF
            else bool(phase[v]) for v in range(1, nv + 1)}


def solve_cnf(cnf: Cnf, conflict_limit: Optional[int] = None,
              time_limit: Optional[float] = None,
              tick: Optional[Callable[[], None]] = None,
              assumptions: Optional[Sequence[int]] = None) -> SatResult:
    """Convenience wrapper: solve a CNF with a fresh CDCL instance."""
    return CdclSolver(cnf).solve(conflict_limit=conflict_limit,
                                 time_limit=time_limit, tick=tick,
                                 assumptions=assumptions)
