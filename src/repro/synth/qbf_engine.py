"""QBF-solver-based synthesis — Sections 4 and 5.1 of the paper.

The cascade of universal gates is encoded **once** (polynomial size) over
symbolic inputs ``X``; meeting the specification is enforced by
quantification:

    exists Y_1 .. Y_d  forall x_1 .. x_n  exists A .
        CNF( AND_l ( f_l^dc OR (F_{d,l} XNOR f_l^on) ) )

``A`` are the Tseitin auxiliaries introduced when flattening the formula
to clauses [20].  The specification itself is encoded via its BDD
(Shannon expansion to an expression DAG), keeping the whole instance
polynomial in the BDD size rather than ``2^n`` truth-table rows.

The solver follows skizzo's symbolic-skolemization lineage: universal
variables are expanded away and one CDCL call decides the result.
Ablation A2 (``benchmarks/bench_ablation_qbf_solvers.py``) feeds the
same encoding to a prefix-order search solver instead, which without
clause/cube learning blows up exponentially per depth.  Either way the
paper's finding holds: the QBF-solver route is far slower than the BDD
engine.

Inside a driver session the expansion solver runs *incrementally*: the
polynomial matrix is encoded once (monotone in depth, with the depth-
``d`` spec constraint behind a guard literal), and universal expansion
is performed as row-cofactoring into one warm CDCL solver — the matrix
copy for input row ``r`` substitutes the ``X`` literals by ``r``'s bits
and renames the inner Tseitin auxiliaries through a per-row copy map,
while the outer gate-select and guard variables stay shared.  A depth
query then reuses every clause, learnt clause and phase from the
previous depths instead of re-expanding and cold-solving.  Realizing
models are canonicalized to the lexicographically smallest gate-code
sequence in both modes, so warm and scratch runs return identical
circuits.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import repro.obs as obs
from repro.bdd.manager import BddManager
from repro.core.cancel import CancelToken, as_token
from repro.core.circuit import Circuit
from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.qbf.expansion import expand_to_cnf
from repro.qbf.qcnf import EXISTS, FORALL, QuantifiedCnf
from repro.sat.cdcl import CdclSolver, SatResult
from repro.sat.cnf import Cnf
from repro.sat.dimacs import to_qdimacs
from repro.sat.expr import ExprBuilder, expr_from_bdd
from repro.sat.incremental import lexmin_model
from repro.synth.bdd_engine import DepthOutcome
from repro.synth.universal import (ExprAlgebra, canonical_select_order,
                                   universal_gate_stage)

__all__ = ["QbfSolverEngine"]


class QbfSolverEngine:
    """Polynomial QCNF encoding decided by universal expansion."""

    name = "qbf"

    def __init__(self, spec: Specification, library: GateLibrary,
                 incremental: bool = True,
                 cancel_token: Optional[CancelToken] = None):
        if library.n_lines != spec.n_lines:
            raise ValueError("library and specification widths differ")
        self.cancel_token = as_token(cancel_token)
        self.spec = spec
        self.library = library
        self.incremental = bool(incremental)
        self.n = spec.n_lines
        self.width = library.select_bits()
        self._session: Optional[_IncrementalExpansionSession] = None

    # -- engine session protocol -------------------------------------------------

    def begin_session(self) -> bool:
        """Driver hook: open the warm row-expansion session.

        Returns whether an incremental session is now active (False when
        the engine was constructed with ``incremental=False``).
        """
        if self.incremental:
            self._session = _IncrementalExpansionSession(self)
        return self._session is not None

    @property
    def session_active(self) -> bool:
        """Whether a warm deepening session is currently open.

        Checked by the driver before ``begin_session()`` so a pooled
        engine (``synthesize(warm_instance=...)``) resumes its hot
        expansion solver instead of rebuilding it.
        """
        return self._session is not None

    def end_session(self) -> None:
        """Driver hook: drop the warm solver and its expansion maps."""
        self._session = None

    # -- encoding ---------------------------------------------------------------

    def encode(self, depth: int) -> Tuple[QuantifiedCnf, List[List[int]]]:
        """Build the prenex QCNF instance; returns (formula, select vars)."""
        cnf = Cnf()
        select_vars = [[cnf.new_var() for _ in range(self.width)]
                       for _ in range(depth)]
        x_vars = [cnf.new_var() for _ in range(self.n)]
        builder = ExprBuilder(cnf)
        algebra = ExprAlgebra(builder)

        lines = [builder.var(v) for v in x_vars]
        select_exprs = [[builder.var(v) for v in block] for block in select_vars]
        for position in range(depth):
            lines = universal_gate_stage(lines, select_exprs[position],
                                         self.library, algebra)

        # Specification as expressions, via its per-output BDDs: the CNF
        # stays linear in the BDD sizes instead of 2^n rows.
        spec_manager = BddManager(self.n,
                                  var_names=[f"x{l}" for l in range(self.n)])
        bdd_x = list(range(self.n))
        var_to_expr = {l: builder.var(x_vars[l]) for l in range(self.n)}
        terms = []
        for l in range(self.n):
            self.cancel_token.raise_if_cancelled()
            on_bdd = spec_manager.from_minterms(bdd_x, self.spec.on_set(l))
            dc_bdd = spec_manager.from_minterms(bdd_x, self.spec.dc_set(l))
            on_expr = expr_from_bdd(spec_manager, on_bdd, var_to_expr, builder)
            dc_expr = expr_from_bdd(spec_manager, dc_bdd, var_to_expr, builder)
            terms.append(builder.or_([dc_expr,
                                      builder.xnor(lines[l], on_expr)]))
        builder.assert_true(builder.and_(terms))

        flat_select = [v for block in select_vars for v in block]
        quantified = set(flat_select).union(x_vars)
        auxiliaries = [v for v in range(1, cnf.num_vars + 1)
                       if v not in quantified]
        prefix = []
        if flat_select:
            prefix.append((EXISTS, flat_select))
        prefix.append((FORALL, x_vars))
        if auxiliaries:
            prefix.append((EXISTS, auxiliaries))
        return QuantifiedCnf(prefix, cnf), select_vars

    def export_qdimacs(self, depth: int) -> str:
        """The depth-``d`` instance in QDIMACS, for external QBF solvers."""
        formula, _ = self.encode(depth)
        return to_qdimacs(formula.prefix, formula.cnf,
                          comments=[f"quantified synthesis of "
                                    f"{self.spec.name or 'anonymous'} depth {depth}",
                                    f"library {self.library.name}"])

    # -- solving -------------------------------------------------------------------

    def decide(self, depth: int,
               time_limit: Optional[float] = None) -> DepthOutcome:
        if self._session is not None:
            return self._session.decide(depth, time_limit)
        return self._decide_scratch(depth, time_limit)

    def _decide_scratch(self, depth: int,
                        time_limit: Optional[float]) -> DepthOutcome:
        """Cold path: encode, expand, one CDCL call, canonicalize.

        The realizing model is lexmin-canonicalized on the live solver —
        the guarantee that scratch and incremental runs return the same
        circuit needs both paths to extract the same canonical witness.
        """
        with obs.span("qbf.encode", depth=depth):
            formula, select_vars = self.encode(depth)
        detail = {"vars": formula.cnf.num_vars,
                  "clauses": len(formula.cnf.clauses),
                  "incremental": False}
        tick = self.cancel_token.raise_if_cancelled
        universals = sum(len(variables)
                         for quantifier, variables in formula.prefix
                         if quantifier == FORALL)
        metrics = {
            "qbf.vars": formula.cnf.num_vars,
            "qbf.clauses": len(formula.cnf.clauses),
            "qbf.expanded_universals": universals,
        }
        with obs.span("qbf.expand", depth=depth):
            cnf, _outer = expand_to_cnf(formula, tick=tick)
        metrics["qbf.expanded_clauses"] = len(cnf.clauses)
        solver = CdclSolver(cnf)
        deadline = (None if time_limit is None
                    else time.perf_counter() + time_limit)
        with obs.span("qbf.solve", depth=depth):
            result = solver.solve(time_limit=time_limit, tick=tick)
        metrics.update(_search_metrics(result))
        metrics["sat.incremental.cold_conflicts"] = result.conflicts
        if result.status == "unknown":
            return DepthOutcome(status="unknown", metrics=metrics,
                                detail=dict(detail, timeout=True))
        if result.is_unsat:
            return DepthOutcome(status="unsat", detail=detail, metrics=metrics)
        assert result.model is not None
        with obs.span("qbf.canonicalize", depth=depth):
            model, canon = lexmin_model(
                solver, canonical_select_order(select_vars), result.model,
                deadline=deadline, tick=tick)
        metrics["sat.canonical_solves"] = canon["solves"]
        metrics["sat.canonical_conflicts"] = canon["conflicts"]
        return self._realized(model, select_vars, detail, metrics)

    def _realized(self, model: Dict[int, bool],
                  select_vars: List[List[int]], detail: Dict[str, object],
                  metrics: Dict[str, float]) -> DepthOutcome:
        circuit = self._decode(model, select_vars)
        if not self.spec.matches_circuit(circuit):
            raise AssertionError(
                "QBF engine produced a circuit violating the specification — "
                "encoding bug")
        cost = circuit.quantum_cost()
        return DepthOutcome(status="sat", circuits=[circuit],
                            quantum_cost_min=cost, quantum_cost_max=cost,
                            detail=detail, metrics=metrics)

    def _decode(self, model: Dict[int, bool],
                select_vars: List[List[int]]) -> Circuit:
        gates = []
        for block in select_vars:
            code = sum((1 << j) for j, var in enumerate(block) if model[var])
            if code < self.library.size():
                gates.append(self.library[code])
        return Circuit(self.n, gates)


def _search_metrics(result: SatResult) -> Dict[str, float]:
    """The ``qbf.*`` search counters of the CDCL call that decided a depth."""
    return {
        "qbf.decisions": result.decisions,
        "qbf.propagations": result.propagations,
        "qbf.conflicts": result.conflicts,
        "qbf.restarts": result.restarts,
        "qbf.learnt_clauses": result.learnt_clauses,
    }


class _IncrementalExpansionSession:
    """Warm row-expansion state for one iterative-deepening run.

    Template side: a growing CNF over the symbolic inputs ``X``, the
    per-stage select variables and the Tseitin auxiliaries — exactly the
    matrix :meth:`QbfSolverEngine.encode` would build, but monotone in
    depth and with each depth's spec constraint behind a guard literal.

    Solver side: full universal expansion realized incrementally as row
    cofactoring.  Every template clause is copied once per input row
    ``r``: ``X`` literals are substituted by ``r``'s bits (satisfied
    copies dropped, false literals removed), inner auxiliary variables
    are renamed through a per-row copy map, and the outer select/guard
    variables map to one shared solver variable each.  This is the same
    formula :func:`~repro.qbf.expansion.expand_to_cnf` produces, built
    clause-by-clause into a live :class:`~repro.sat.cdcl.CdclSolver`
    instead of re-expanded from scratch per depth, so the inner SAT
    calls keep their learnt clauses, activity and phases across the
    whole Figure-1 loop.
    """

    def __init__(self, engine: QbfSolverEngine):
        self.engine = engine
        self.cnf = Cnf()
        self.builder = ExprBuilder(self.cnf)
        self.algebra = ExprAlgebra(self.builder)
        self.solver = CdclSolver()
        self._synced = 0  # clause cursor into the template CNF
        n = engine.n
        builder = self.builder
        self.x_vars = [self.cnf.new_var() for _ in range(n)]
        self.x_index = {var: l for l, var in enumerate(self.x_vars)}
        #: outer (select/guard) template var -> shared solver var
        self.outer_map: Dict[int, int] = {}
        #: per input row: inner template var -> that row's solver copy
        self.row_maps: List[Dict[int, int]] = [{} for _ in range(1 << n)]
        self.select_blocks_t: List[List[int]] = []
        self.select_blocks_s: List[List[int]] = []
        self.guards: Dict[int, int] = {}
        # Symbolic line snapshots per depth (snapshot 0: the raw inputs).
        self.snapshots: List[list] = [[builder.var(v) for v in self.x_vars]]
        # Specification expressions over X, via its per-output BDDs —
        # computed once, shared by every depth's guard.
        spec_manager = BddManager(n, var_names=[f"x{l}" for l in range(n)])
        bdd_x = list(range(n))
        var_to_expr = {l: builder.var(self.x_vars[l]) for l in range(n)}
        self.on_exprs = []
        self.dc_exprs = []
        for l in range(n):
            engine.cancel_token.raise_if_cancelled()
            on_bdd = spec_manager.from_minterms(bdd_x, engine.spec.on_set(l))
            dc_bdd = spec_manager.from_minterms(bdd_x, engine.spec.dc_set(l))
            self.on_exprs.append(
                expr_from_bdd(spec_manager, on_bdd, var_to_expr, builder))
            self.dc_exprs.append(
                expr_from_bdd(spec_manager, dc_bdd, var_to_expr, builder))

    # -- encoding growth ---------------------------------------------------------

    def _outer_var(self, template_var: int) -> int:
        solver_var = self.outer_map.get(template_var)
        if solver_var is None:
            solver_var = self.solver.new_var()
            self.outer_map[template_var] = solver_var
        return solver_var

    def _extend_to(self, depth: int) -> None:
        engine = self.engine
        while len(self.select_blocks_t) < depth:
            engine.cancel_token.raise_if_cancelled()
            block = [self.cnf.new_var() for _ in range(engine.width)]
            self.select_blocks_t.append(block)
            self.select_blocks_s.append([self._outer_var(v) for v in block])
            select_exprs = [self.builder.var(v) for v in block]
            self.snapshots.append(universal_gate_stage(
                self.snapshots[-1], select_exprs, engine.library,
                self.algebra))

    def _guard(self, depth: int) -> int:
        guard = self.guards.get(depth)
        if guard is not None:
            return guard
        builder = self.builder
        guard = self.cnf.new_var()
        self._outer_var(guard)
        lines = self.snapshots[depth]
        terms = [builder.or_([self.dc_exprs[l],
                              builder.xnor(lines[l], self.on_exprs[l])])
                 for l in range(self.engine.n)]
        self.cnf.add_clause((-guard, builder.tseitin(builder.and_(terms))))
        self.guards[depth] = guard
        return guard

    def _sync(self) -> int:
        """Row-cofactor the newly-encoded template clauses into the solver."""
        added = 0
        clauses = self.cnf.clauses
        while self._synced < len(clauses):
            clause = clauses[self._synced]
            self._synced += 1
            for row, row_map in enumerate(self.row_maps):
                copy: List[int] = []
                satisfied = False
                for lit in clause:
                    var = abs(lit)
                    line = self.x_index.get(var)
                    if line is not None:
                        bit = bool((row >> line) & 1)
                        if (lit > 0) == bit:
                            satisfied = True
                            break
                        continue  # false under this row: literal drops
                    solver_var = self.outer_map.get(var)
                    if solver_var is None:
                        solver_var = row_map.get(var)
                        if solver_var is None:
                            solver_var = self.solver.new_var()
                            row_map[var] = solver_var
                    copy.append(solver_var if lit > 0 else -solver_var)
                if satisfied:
                    continue
                self.solver.add_clause(copy)
                added += 1
        return added

    # -- depth decision ----------------------------------------------------------

    def decide(self, depth: int,
               time_limit: Optional[float] = None) -> DepthOutcome:
        engine = self.engine
        tick = engine.cancel_token.raise_if_cancelled
        reused = self.solver.num_clauses + self.solver.num_learnts
        with obs.span("qbf.encode", depth=depth, incremental=True):
            self._extend_to(depth)
            guard = self._guard(depth)
        with obs.span("qbf.expand", depth=depth, incremental=True):
            added = self._sync()
        detail = {"vars": self.cnf.num_vars,
                  "clauses": len(self.cnf.clauses),
                  "incremental": True}
        metrics = {
            "qbf.vars": self.cnf.num_vars,
            "qbf.clauses": len(self.cnf.clauses),
            "qbf.expanded_universals": engine.n,
            "qbf.expanded_clauses": self.solver.num_clauses,
            "sat.incremental.clauses_reused": reused,
            "sat.incremental.clauses_added": added,
            "sat.incremental.assumptions": 1,
        }
        deadline = (None if time_limit is None
                    else time.perf_counter() + time_limit)
        guard_lit = self.outer_map[guard]
        with obs.span("qbf.solve", depth=depth, incremental=True):
            result = self.solver.solve(time_limit=time_limit, tick=tick,
                                       assumptions=[guard_lit])
        metrics.update(_search_metrics(result))
        metrics["sat.incremental.warm_conflicts"] = result.conflicts
        if result.status == "unknown":
            return DepthOutcome(status="unknown", metrics=metrics,
                                detail=dict(detail, timeout=True))
        if result.is_unsat:
            return DepthOutcome(status="unsat", detail=detail, metrics=metrics)
        assert result.model is not None
        select_vars = self.select_blocks_s[:depth]
        with obs.span("qbf.canonicalize", depth=depth):
            model, canon = lexmin_model(
                self.solver, canonical_select_order(select_vars),
                result.model, assumptions=[guard_lit], deadline=deadline,
                tick=tick)
        metrics["sat.canonical_solves"] = canon["solves"]
        metrics["sat.canonical_conflicts"] = canon["conflicts"]
        return engine._realized(model, select_vars, detail, metrics)
