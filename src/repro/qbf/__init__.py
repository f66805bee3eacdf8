"""QBF substrate: prenex QCNF and universal expansion to CNF."""

from repro.qbf.expansion import expand_to_cnf
from repro.qbf.qcnf import EXISTS, FORALL, QuantifiedCnf

__all__ = [
    "EXISTS",
    "FORALL",
    "QuantifiedCnf",
    "expand_to_cnf",
]
