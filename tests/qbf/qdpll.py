"""Test-only QBF decision procedures: QDPLL search and expansion + CDCL.

A second, independent way to decide the prenex QCNF instances the QBF
engine encodes: the tests cross-check it against the brute-force
evaluator and the engines, and ablation A2
(``benchmarks/bench_ablation_qbf_solvers.py``) times it against the
engine's universal expansion.  The search extends DPLL to quantified
formulas:

* **prefix-order branching** — decisions follow the quantifier prefix;
  existential variables are OR-branched, universal variables AND-branched
  (irrelevant variables — those absent from every unsatisfied clause —
  are assigned a single arbitrary value instead);
* **universal reduction** (preprocessing) — a universal literal is
  deleted from a clause when no existential literal in the clause is
  quantified deeper;
* **QBF unit propagation** — a clause with no satisfied literal, exactly
  one unassigned existential literal and no unassigned universal literal
  quantified outside it forces that literal; a clause whose unassigned
  literals are all universal is falsified;
* **pure-literal rule** (preprocessing) — pure existential literals are
  satisfied, pure universal literals falsified.

The implementation keeps all state in-place (assignment array, clause
counters, an undo trail) — no clause-list copying per node.  No
clause/cube learning is implemented; the paper's experiments already
show the QBF-solver route losing to the BDD route by orders of
magnitude, and this solver reproduces that relative behaviour (ablation
A2 compares it against expansion-based solving).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.qbf.expansion import expand_to_cnf
from repro.qbf.qcnf import FORALL, QuantifiedCnf
from repro.sat.cdcl import solve_cnf

__all__ = ["QbfResult", "QdpllSolver", "solve_qbf", "solve_qbf_by_expansion"]

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1


@dataclass
class QbfResult:
    """Outcome of a QBF call.

    ``conflicts`` and the ``expanded_*`` figures are filled by the
    expansion-based solver (which delegates to CDCL); the QDPLL search
    reports branching via ``decisions``/``propagations``.
    """

    status: str  # "sat", "unsat" or "unknown"
    model: Optional[Dict[int, bool]] = None  # outer existential block only
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    expanded_universals: int = 0
    expanded_clauses: int = 0
    runtime: float = 0.0

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"


class _Timeout(Exception):
    pass


class QdpllSolver:
    """One-shot QDPLL search over a :class:`QuantifiedCnf`."""

    def __init__(self, formula: QuantifiedCnf):
        self.formula = formula
        self.order = formula.variables_in_order()
        nv = formula.cnf.num_vars
        self.level = [0] * (nv + 1)
        self.existential = [True] * (nv + 1)
        for var in self.order:
            self.level[var] = formula.level(var)
            self.existential[var] = formula.is_existential(var)
        self.outer_block = formula.outer_existential_block()
        self.result = QbfResult(status="unknown")
        self._deadline: Optional[float] = None
        self._contradiction = False

        # Clause store with counters, built by preprocessing.
        self.clauses: List[Tuple[int, ...]] = []
        self.occur_pos: Dict[int, List[int]] = {}
        self.occur_neg: Dict[int, List[int]] = {}
        self._preprocess()

        nc = len(self.clauses)
        self.n_sat = [0] * nc          # satisfied literals per clause
        self.n_unassigned = [0] * nc   # unassigned literals per clause
        self.n_unassigned_e = [0] * nc  # ... of which existential
        for ci, clause in enumerate(self.clauses):
            self.n_unassigned[ci] = len(clause)
            self.n_unassigned_e[ci] = sum(
                1 for lit in clause if self.existential[abs(lit)])
        self.unsatisfied = nc          # clauses with n_sat == 0
        self.value = [_UNASSIGNED] * (nv + 1)
        self.trail: List[int] = []
        # Work list of clauses whose counters changed and may now be unit
        # or falsified; checks are state-based, so stale entries are safe.
        self._dirty: List[int] = list(range(nc))
        self._witness: Dict[int, bool] = {}

    # -- preprocessing ------------------------------------------------------------

    def _universal_reduce(self, clause: Tuple[int, ...]) -> Tuple[int, ...]:
        max_exist = -1
        for lit in clause:
            if self.existential[abs(lit)]:
                max_exist = max(max_exist, self.level[abs(lit)])
        return tuple(lit for lit in clause
                     if self.existential[abs(lit)]
                     or self.level[abs(lit)] < max_exist)

    def _preprocess(self) -> None:
        """Drop tautologies, apply universal reduction, register clauses."""
        seen = set()
        for raw in self.formula.cnf.clauses:
            clause = tuple(dict.fromkeys(raw))  # dedupe, keep order
            if any(-lit in clause for lit in clause):
                continue  # tautology (must go before reduction)
            clause = self._universal_reduce(clause)
            if not clause:
                self._contradiction = True
                return
            if clause in seen:
                continue
            seen.add(clause)
            ci = len(self.clauses)
            self.clauses.append(clause)
            for lit in clause:
                bucket = self.occur_pos if lit > 0 else self.occur_neg
                bucket.setdefault(abs(lit), []).append(ci)

    # -- assignment machinery ---------------------------------------------------------

    def _assign(self, lit: int) -> bool:
        """Make ``lit`` true; returns False on an immediate conflict."""
        var = abs(lit)
        self.value[var] = _TRUE if lit > 0 else _FALSE
        self.trail.append(lit)
        satisfied = self.occur_pos if lit > 0 else self.occur_neg
        falsified = self.occur_neg if lit > 0 else self.occur_pos
        existential = self.existential[var]
        conflict = False
        for ci in satisfied.get(var, ()):
            if self.n_sat[ci] == 0:
                self.unsatisfied -= 1
            self.n_sat[ci] += 1
            self.n_unassigned[ci] -= 1
            if existential:
                self.n_unassigned_e[ci] -= 1
        for ci in falsified.get(var, ()):
            self.n_unassigned[ci] -= 1
            if existential:
                self.n_unassigned_e[ci] -= 1
            if self.n_sat[ci] == 0:
                self._dirty.append(ci)
                if self.n_unassigned_e[ci] == 0:
                    conflict = True
        return not conflict

    def _unassign_to(self, mark: int) -> None:
        while len(self.trail) > mark:
            lit = self.trail.pop()
            var = abs(lit)
            self.value[var] = _UNASSIGNED
            satisfied = self.occur_pos if lit > 0 else self.occur_neg
            falsified = self.occur_neg if lit > 0 else self.occur_pos
            existential = self.existential[var]
            for ci in satisfied.get(var, ()):
                self.n_sat[ci] -= 1
                if self.n_sat[ci] == 0:
                    self.unsatisfied += 1
                self.n_unassigned[ci] += 1
                if existential:
                    self.n_unassigned_e[ci] += 1
            for ci in falsified.get(var, ()):
                self.n_unassigned[ci] += 1
                if existential:
                    self.n_unassigned_e[ci] += 1

    # -- propagation ---------------------------------------------------------------------

    def _examine(self, ci: int) -> Optional[int]:
        """Unit literal of a clause, 0 for conflict, None for nothing."""
        if self.n_sat[ci] > 0:
            return None
        if self.n_unassigned_e[ci] == 0:
            return 0  # all remaining literals universal: falsified
        if self.n_unassigned_e[ci] != 1:
            return None
        clause = self.clauses[ci]
        unit = None
        unit_level = -1
        for lit in clause:
            var = abs(lit)
            if self.value[var] == _UNASSIGNED and self.existential[var]:
                unit = lit
                unit_level = self.level[var]
        assert unit is not None
        for lit in clause:
            var = abs(lit)
            if (self.value[var] == _UNASSIGNED
                    and not self.existential[var]
                    and self.level[var] < unit_level):
                return None  # an outer universal moves first: not unit
        return unit

    def _propagate(self) -> bool:
        """Drain the dirty work list with the unit rule; False on conflict."""
        while self._dirty:
            ci = self._dirty.pop()
            verdict = self._examine(ci)
            if verdict is None:
                continue
            if verdict == 0:
                return False
            if self.value[abs(verdict)] != _UNASSIGNED:
                continue  # assigned meanwhile by another unit
            self.result.propagations += 1
            if not self._assign(verdict):
                return False
        return True

    # -- branching --------------------------------------------------------------------------

    def _is_relevant(self, var: int) -> bool:
        """Does the variable occur in any currently unsatisfied clause?"""
        for bucket in (self.occur_pos, self.occur_neg):
            for ci in bucket.get(var, ()):
                if self.n_sat[ci] == 0:
                    return True
        return False

    def _pick_branch_var(self) -> Optional[int]:
        for var in self.order:
            if self.value[var] == _UNASSIGNED and self._is_relevant(var):
                return var
        return None

    # -- search ------------------------------------------------------------------------------

    def solve(self, time_limit: Optional[float] = None) -> QbfResult:
        """Run the search."""
        start = time.perf_counter()
        if time_limit is not None:
            self._deadline = start + time_limit
        if self._contradiction:
            self.result.status = "unsat"
            self.result.runtime = time.perf_counter() - start
            return self.result
        try:
            success = self._search()
        except _Timeout:
            self.result.status = "unknown"
            self.result.runtime = time.perf_counter() - start
            return self.result
        if success:
            self.result.status = "sat"
            self.result.model = self._witness
        else:
            self.result.status = "unsat"
        self.result.runtime = time.perf_counter() - start
        return self.result

    def _search(self) -> bool:
        if self._deadline is not None and time.perf_counter() > self._deadline:
            raise _Timeout
        mark = len(self.trail)
        if not self._propagate():
            self._unassign_to(mark)
            return False
        if self.unsatisfied == 0:
            self._witness = {
                v: self.value[v] == _TRUE if self.value[v] != _UNASSIGNED
                else False
                for v in self.outer_block
            }
            self._unassign_to(mark)
            return True
        var = self._pick_branch_var()
        if var is None:
            # Every unassigned variable is irrelevant yet clauses remain
            # unsatisfied — impossible, since an unsatisfied clause has
            # unassigned literals (else it would have conflicted).
            raise AssertionError("unsatisfied clause without branchable variable")
        self.result.decisions += 1
        if self.existential[var]:
            for value in (True, False):
                inner = len(self.trail)
                if self._assign(var if value else -var) and self._search():
                    self._unassign_to(mark)
                    return True
                self._unassign_to(inner)
            self._unassign_to(mark)
            return False
        witness = None
        for value in (True, False):
            inner = len(self.trail)
            ok = self._assign(var if value else -var) and self._search()
            self._unassign_to(inner)
            if not ok:
                self._unassign_to(mark)
                return False
        self._unassign_to(mark)
        return True


def solve_qbf(formula: QuantifiedCnf,
              time_limit: Optional[float] = None) -> QbfResult:
    """Convenience wrapper: solve with a fresh QDPLL instance."""
    return QdpllSolver(formula).solve(time_limit=time_limit)


def solve_qbf_by_expansion(formula: QuantifiedCnf,
                           time_limit: Optional[float] = None) -> QbfResult:
    """Decide a QBF by full universal expansion plus one CDCL call."""
    start = time.perf_counter()
    universals = sum(len(variables) for quantifier, variables in formula.prefix
                     if quantifier == FORALL)
    cnf, outer = expand_to_cnf(formula)
    sat = solve_cnf(cnf, time_limit=time_limit)
    result = QbfResult(status=sat.status,
                       decisions=sat.decisions,
                       propagations=sat.propagations,
                       conflicts=sat.conflicts,
                       expanded_universals=universals,
                       expanded_clauses=len(cnf.clauses),
                       runtime=time.perf_counter() - start)
    if sat.is_sat:
        assert sat.model is not None
        result.model = {v: sat.model[v] for v in outer}
    return result
