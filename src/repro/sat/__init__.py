"""SAT substrate: CNF model, Tseitin transformation, CDCL solver."""

from repro.sat.cdcl import CdclSolver, SatResult, luby, solve_cnf
from repro.sat.cnf import Cnf, clause_satisfied, evaluate_cnf
from repro.sat.dimacs import from_dimacs, from_qdimacs, to_dimacs, to_qdimacs
from repro.sat.expr import Expr, ExprBuilder, expr_from_bdd
from repro.sat.incremental import lexmin_model

__all__ = [
    "CdclSolver",
    "Cnf",
    "Expr",
    "ExprBuilder",
    "SatResult",
    "lexmin_model",
    "clause_satisfied",
    "evaluate_cnf",
    "expr_from_bdd",
    "from_dimacs",
    "from_qdimacs",
    "luby",
    "solve_cnf",
    "to_dimacs",
    "to_qdimacs",
]
