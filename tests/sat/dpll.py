"""A plain DPLL solver used as a correctness reference for CDCL.

No learning, no restarts — just unit propagation, pure-literal
elimination and chronological backtracking.  Exponentially slower than
:mod:`repro.sat.cdcl` on hard instances but simple enough to trust, so
the test suite cross-checks the two on random formulas.  Test-only: it
lives beside the tests, not in the package.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.sat.cnf import Cnf

__all__ = ["dpll_solve"]


def _simplify(clauses: List[Tuple[int, ...]], lit: int) -> Optional[List[Tuple[int, ...]]]:
    """Assign ``lit`` true; returns simplified clauses or None on conflict."""
    result: List[Tuple[int, ...]] = []
    for clause in clauses:
        if lit in clause:
            continue
        if -lit in clause:
            reduced = tuple(l for l in clause if l != -lit)
            if not reduced:
                return None
            result.append(reduced)
        else:
            result.append(clause)
    return result


def _propagate_units(clauses: List[Tuple[int, ...]],
                     assignment: Dict[int, bool]) -> Optional[List[Tuple[int, ...]]]:
    while True:
        unit = next((c[0] for c in clauses if len(c) == 1), None)
        if unit is None:
            return clauses
        assignment[abs(unit)] = unit > 0
        clauses = _simplify(clauses, unit)
        if clauses is None:
            return None


def _eliminate_pure(clauses: List[Tuple[int, ...]],
                    assignment: Dict[int, bool]) -> List[Tuple[int, ...]]:
    literals: Set[int] = {lit for clause in clauses for lit in clause}
    for lit in list(literals):
        if -lit not in literals:
            assignment[abs(lit)] = lit > 0
            simplified = _simplify(clauses, lit)
            assert simplified is not None  # pure literals cannot conflict
            clauses = simplified
    return clauses


def _search(clauses: List[Tuple[int, ...]],
            assignment: Dict[int, bool]) -> Optional[Dict[int, bool]]:
    propagated = _propagate_units(clauses, assignment)
    if propagated is None:
        return None
    clauses = _eliminate_pure(propagated, assignment)
    if not clauses:
        return assignment
    branch_var = abs(clauses[0][0])
    for value in (True, False):
        trial = dict(assignment)
        simplified = _simplify(clauses, branch_var if value else -branch_var)
        if simplified is None:
            continue
        trial[branch_var] = value
        model = _search(simplified, trial)
        if model is not None:
            return model
    return None


def dpll_solve(cnf: Cnf) -> Optional[Dict[int, bool]]:
    """Solve; returns a total model or None if unsatisfiable."""
    model = _search(list(cnf.clauses), {})
    if model is None:
        return None
    for var in range(1, cnf.num_vars + 1):
        model.setdefault(var, False)
    return model
