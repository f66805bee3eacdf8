"""QBF substrate: prenex QCNF, QDPLL and expansion solvers."""

from repro.qbf.expansion import (
    ExpansionBudgetExceeded,
    expand_to_cnf,
    solve_qbf_by_expansion,
)
from repro.qbf.qcnf import EXISTS, FORALL, QuantifiedCnf
from repro.qbf.qdpll import QbfResult, QdpllSolver, solve_qbf

__all__ = [
    "EXISTS",
    "ExpansionBudgetExceeded",
    "FORALL",
    "QbfResult",
    "QdpllSolver",
    "QuantifiedCnf",
    "expand_to_cnf",
    "solve_qbf",
    "solve_qbf_by_expansion",
]
