"""Canonical model extraction over an incremental CDCL solver.

Incremental deepening keeps one warm :class:`~repro.sat.cdcl.CdclSolver`
alive across the Figure-1 loop, so the model it happens to return at the
realizing depth depends on solver history (learnt clauses, activity,
phases) — a cold solver on the same instance would typically return a
*different* witness.  To keep the engine contract "incremental and
scratch paths return identical circuits", both paths canonicalize the
witness with :func:`lexmin_model`: the lexicographically smallest model
restricted to a caller-chosen, priority-ordered variable list.  That
minimum is a property of the formula's model set alone (the engines pass
the gate-select variables most-significant-first, so it is the smallest
gate-code sequence realizing the spec), hence independent of solver
state.

The descent is model-guided: a variable already 0 in the best witness is
pinned for free; a 1-bit costs one assumption-based solve asking whether
0 is still feasible.  On a warm solver these probes are usually
propagation-only.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sat.cdcl import CdclSolver

__all__ = ["lexmin_model"]


def lexmin_model(solver: CdclSolver, variables: Sequence[int],
                 model: Dict[int, bool],
                 assumptions: Sequence[int] = (),
                 deadline: Optional[float] = None,
                 tick: Optional[Callable[[], None]] = None,
                 ) -> Tuple[Dict[int, bool], Dict[str, int]]:
    """Minimize ``model`` lexicographically over ``variables``.

    ``variables`` is the priority order, most significant first;
    ``model`` must be a model of the solver's formula under
    ``assumptions``.  Returns ``(canonical_model, stats)`` where stats
    counts the extra solver work (``solves`` / ``conflicts`` /
    ``decisions`` / ``propagations``) so engines can report
    canonicalization separately from the depth decision itself, and
    ``complete`` is 1 when the descent finished and 0 when it was cut
    short.

    ``deadline`` is an absolute ``time.perf_counter()`` instant: once it
    passes, the remaining bits keep their current witness values.  The
    result is then a valid but possibly non-minimal model, so it is not
    the canonical one (``complete`` is 0) and must not be stored as such.
    """
    best = model
    pinned: List[int] = list(assumptions)
    stats = {"solves": 0, "conflicts": 0, "decisions": 0, "propagations": 0}
    expired = False
    for var in variables:
        if not best.get(var, False):
            pinned.append(-var)
            continue
        if not expired and deadline is not None:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                expired = True
        if expired:
            pinned.append(var)
            continue
        budget = (None if deadline is None
                  else deadline - time.perf_counter())
        result = solver.solve(assumptions=pinned + [-var],
                              time_limit=budget, tick=tick)
        stats["solves"] += 1
        stats["conflicts"] += result.conflicts
        stats["decisions"] += result.decisions
        stats["propagations"] += result.propagations
        if result.is_sat:
            assert result.model is not None
            best = result.model
            pinned.append(-var)
        elif result.is_unsat:
            pinned.append(var)
        else:  # budget ran out mid-probe: keep the witness bit
            expired = True
            pinned.append(var)
    stats["complete"] = 0 if expired else 1
    return best, stats
