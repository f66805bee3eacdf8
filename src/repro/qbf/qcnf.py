"""Prenex quantified CNF (QCNF) formulas.

A QBF in prenex normal form is ``Q_1 V_1 ... Q_t V_t . phi`` with ``phi``
a CNF over the quantified variables (Section 2.2 of the paper).  Blocks
alternate freely; variables missing from the prefix are treated as
outermost existentials (free variables).

Quantifier *levels* number the blocks from the outside in, starting at 0;
they drive universal reduction and the unit rule of QBF search.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sat.cnf import Cnf

__all__ = ["QuantifiedCnf", "EXISTS", "FORALL"]

EXISTS = "e"
FORALL = "a"


class QuantifiedCnf:
    """A prenex QCNF: quantifier prefix plus CNF matrix."""

    __slots__ = ("cnf", "prefix", "_block_of", "_quant_of")

    def __init__(self, prefix: Sequence[Tuple[str, Sequence[int]]], cnf: Cnf):
        normalized: List[Tuple[str, Tuple[int, ...]]] = []
        seen: Dict[int, int] = {}
        for quantifier, variables in prefix:
            if quantifier not in (EXISTS, FORALL):
                raise ValueError(f"unknown quantifier {quantifier!r}")
            block = tuple(variables)
            for var in block:
                if not 1 <= var <= cnf.num_vars:
                    raise ValueError(f"prefix variable {var} outside CNF range")
                if var in seen:
                    raise ValueError(f"variable {var} quantified twice")
                seen[var] = len(normalized)
            if block:
                normalized.append((quantifier, block))
        # Free variables become an implicit outermost existential block.
        free = tuple(v for v in range(1, cnf.num_vars + 1) if v not in seen)
        if free:
            normalized.insert(0, (EXISTS, free))
            seen = {}
            for index, (_, block) in enumerate(normalized):
                for var in block:
                    seen[var] = index
        self.prefix: Tuple[Tuple[str, Tuple[int, ...]], ...] = tuple(normalized)
        self.cnf = cnf
        self._block_of = seen
        self._quant_of = {var: self.prefix[idx][0] for var, idx in seen.items()}

    # -- queries -------------------------------------------------------------------

    def level(self, var: int) -> int:
        """Block index of the variable (0 = outermost)."""
        return self._block_of[var]

    def quantifier(self, var: int) -> str:
        return self._quant_of[var]

    def is_existential(self, var: int) -> bool:
        return self._quant_of[var] == EXISTS

    def is_universal(self, var: int) -> bool:
        return self._quant_of[var] == FORALL

    def variables_in_order(self) -> List[int]:
        """All variables, outermost block first."""
        ordered: List[int] = []
        for _, block in self.prefix:
            ordered.extend(block)
        return ordered

    def outer_existential_block(self) -> Tuple[int, ...]:
        """Variables of the leading existential block (empty if none).

        For the synthesis encoding these are the gate-select inputs
        ``Y``, whose satisfying assignment is the network realization.
        """
        if self.prefix and self.prefix[0][0] == EXISTS:
            return self.prefix[0][1]
        return ()

    def num_blocks(self) -> int:
        return len(self.prefix)

    def __repr__(self) -> str:
        shape = " ".join(f"{q}{len(block)}" for q, block in self.prefix)
        return (f"QuantifiedCnf(prefix=[{shape}], vars={self.cnf.num_vars}, "
                f"clauses={len(self.cnf.clauses)})")
