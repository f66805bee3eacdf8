"""Expansion-based QBF solving (universal expansion to SAT).

The flavour of solver skizzo [2, 3] belongs to: instead of searching the
prefix, universal quantifiers are eliminated symbolically.  Expanding a
universal variable ``u`` replaces the matrix ``phi`` by
``phi[u=0] AND phi[u=1]`` where all variables quantified *inner* to ``u``
are renamed to fresh copies in the ``u=1`` half (they may be Skolemized
differently on each universal branch).  Once every universal variable is
expanded the formula is purely existential and a single CDCL call decides
it.

Expanding the synthesis encoding ``exists Y forall X exists A . phi``
duplicates the circuit constraints once per assignment of the ``n``
inputs — exactly the exponential 2^n blow-up of the SAT baseline the QBF
formulation avoids.  Ablation A2 measures this.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.qbf.qcnf import FORALL, QuantifiedCnf
from repro.sat.cnf import Cnf

__all__ = ["expand_to_cnf"]

Clause = Tuple[int, ...]


def expand_to_cnf(formula: QuantifiedCnf,
                  tick: Optional[Callable[[], None]] = None
                  ) -> Tuple[Cnf, List[int]]:
    """Expand all universal variables; returns (CNF, outer existential vars).

    The returned CNF is over the surviving existential variables (original
    outer ones keep their indices, inner ones gain renamed copies).  A
    model of it restricted to the outer block is a certificate for the
    original QBF.

    ``tick`` is invoked once per eliminated universal variable and may
    raise to abort the (potentially exponential) expansion early — the
    parallel layer uses it for cooperative cancellation.
    """
    clauses: List[Clause] = [tuple(c) for c in formula.cnf.clauses]
    next_var = formula.cnf.num_vars
    # blocks, outermost first; mutated as universals are eliminated
    blocks: List[Tuple[str, List[int]]] = [
        (quantifier, list(variables)) for quantifier, variables in formula.prefix
    ]

    def innermost_universal() -> Optional[int]:
        for index in range(len(blocks) - 1, -1, -1):
            if blocks[index][0] == FORALL and blocks[index][1]:
                return index
        return None

    while True:
        if tick is not None:
            tick()
        block_index = innermost_universal()
        if block_index is None:
            break
        universal_var = blocks[block_index][1].pop()
        inner_vars: List[int] = []
        for _, variables in blocks[block_index + 1:]:
            inner_vars.extend(variables)

        negative_half: List[Clause] = []  # u = 0
        positive_half: List[Clause] = []  # u = 1
        for clause in clauses:
            if -universal_var in clause:
                positive_half.append(tuple(l for l in clause if l != -universal_var))
            elif universal_var in clause:
                negative_half.append(tuple(l for l in clause if l != universal_var))
            else:
                negative_half.append(clause)
                positive_half.append(clause)

        # Fresh copies of inner variables for the u = 1 half.
        rename: Dict[int, int] = {}
        for var in inner_vars:
            next_var += 1
            rename[var] = next_var
        renamed_half = [
            tuple((1 if lit > 0 else -1) * rename.get(abs(lit), abs(lit))
                  for lit in clause)
            for clause in positive_half
        ]
        clauses = negative_half + renamed_half
        # The copies live in the same (now merged) existential scope.
        for index in range(block_index + 1, len(blocks)):
            quantifier, variables = blocks[index]
            blocks[index] = (quantifier, variables + [rename[v] for v in variables
                                                      if v in rename])

    cnf = Cnf(next_var)
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf, list(formula.outer_existential_block())

