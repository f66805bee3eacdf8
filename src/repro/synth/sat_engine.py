"""SAT-based exact synthesis — the baseline of [9] (GLSVLSI'06) / [22].

The depth-``d`` question is encoded as plain Boolean satisfiability:
the gate-select variables are shared, but the cascade constraints are
**duplicated for every truth-table row** — each care row gets its own
copy of the ``d`` universal-gate stages with the row's constant inputs
folded in.  The encoding therefore grows as ``Theta(2^n * d * q)``,
which is exactly the weakness (Section 3 of the paper) the QBF
formulation removes.  Instances are decided by the CDCL solver
(:mod:`repro.sat.cdcl`), the stand-in for MiniSat.

Two solving modes exist.  The *scratch* mode re-encodes and cold-solves
every depth (the engine's historical behaviour, still what a bare
``decide()`` call does).  Inside a driver session
(:meth:`SatBaselineEngine.begin_session`) the engine switches to
*incremental* deepening: one warm :class:`~repro.sat.cdcl.CdclSolver`
holds a monotone encoding where the depth-``d`` output constraint is
guarded by an activation literal ``A_d``, so ``decide(d+1)`` pushes one
new universal-gate stage plus one guard into the live solver —
``solve(assumptions=[A_{d+1}])`` — instead of rebuilding
``Theta(2^n * d * q)`` clauses.  Learnt clauses, VSIDS activity and
saved phases all carry over across depths.

Model note: a warm solver's witness depends on solver history, so both
modes canonicalize the realizing model to the lexicographically
smallest gate-code sequence (:func:`repro.sat.incremental.lexmin_model`
over :func:`repro.synth.universal.canonical_select_order`) — the
incremental and scratch paths return *identical* circuits by
construction, which the incremental benchmark asserts.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import repro.obs as obs
from repro.core.cancel import CancelToken, as_token
from repro.core.circuit import Circuit
from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.sat.cdcl import CdclSolver
from repro.sat.cnf import Cnf
from repro.sat.expr import ExprBuilder
from repro.sat.incremental import lexmin_model
from repro.synth.bdd_engine import DepthOutcome
from repro.synth.universal import (ExprAlgebra, canonical_select_order,
                                   universal_gate_stage)

__all__ = ["SatBaselineEngine"]


class SatBaselineEngine:
    """Per-truth-table-row SAT encoding plus CDCL solving.

    The gate choice per cascade position is encoded in binary:
    ``ceil(log2 q)`` select variables feed the universal-gate
    construction.  Ablation A5 compares it against [9]'s one-hot
    selectors, built next to its bench.

    ``incremental`` (default on) enables the warm-solver deepening mode
    whenever the driver opens an engine session; a bare ``decide()``
    call outside any session always takes the scratch path.
    """

    name = "sat"

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
        self._session: Optional[_IncrementalSatSession] = None

    # -- engine session protocol -------------------------------------------------

    def begin_session(self) -> bool:
        """Driver hook: open the warm-solver deepening session.

        Returns whether an incremental session is now active (False when
        the engine was constructed with ``incremental=False``).
        """
        if self.incremental:
            self._session = _IncrementalSatSession(self)
        return self._session is not None

    @property
    def session_active(self) -> bool:
        """Whether a warm deepening session is currently open.

        The driver checks this before ``begin_session()`` so a pooled
        engine handed back via ``synthesize(warm_instance=...)`` resumes
        its hot solver instead of rebuilding the encoding from scratch.
        """
        return self._session is not None

    def end_session(self) -> None:
        """Driver hook: drop the warm solver and its encoding."""
        self._session = None

    def encode(self, depth: int) -> "tuple[Cnf, List[List[int]]]":
        """Build the depth-``d`` instance; returns (CNF, select variables).

        Exposed separately so ablation A4 can measure encoding sizes
        without solving.
        """
        cnf = Cnf()
        select_vars = [[cnf.new_var() for _ in range(self.width)]
                       for _ in range(depth)]
        builder = ExprBuilder(cnf)
        algebra = ExprAlgebra(builder)
        select_exprs = [[builder.var(v) for v in block] for block in select_vars]

        for row_input, row in enumerate(self.spec.rows):
            self.cancel_token.raise_if_cancelled()
            if all(value is None for value in row):
                continue  # row entirely outside the care domain
            lines = [builder.const(bool((row_input >> l) & 1))
                     for l in range(self.n)]
            for position in range(depth):
                lines = universal_gate_stage(lines, select_exprs[position],
                                             self.library, algebra)
            for l, value in enumerate(row):
                if value is None:
                    continue
                builder.assert_true(
                    builder.xnor(lines[l], builder.const(bool(value))))
        return cnf, select_vars

    def decide(self, depth: int,
               time_limit: Optional[float] = None) -> DepthOutcome:
        if self._session is not None:
            return self._session.decide(depth, time_limit)
        return self._decide_scratch(depth, time_limit)

    def _decide_scratch(self, depth: int,
                        time_limit: Optional[float] = None) -> DepthOutcome:
        with obs.span("sat.encode", depth=depth):
            cnf, select_vars = self.encode(depth)
        detail = {"vars": cnf.num_vars, "clauses": len(cnf.clauses),
                  "incremental": False}
        tick = self.cancel_token.raise_if_cancelled
        solver = CdclSolver(cnf)
        deadline = (None if time_limit is None
                    else time.perf_counter() + time_limit)
        with obs.span("sat.solve", depth=depth):
            result = solver.solve(time_limit=time_limit, tick=tick)
        metrics = {
            "sat.vars": cnf.num_vars,
            "sat.clauses": len(cnf.clauses),
            "sat.conflicts": result.conflicts,
            "sat.decisions": result.decisions,
            "sat.propagations": result.propagations,
            "sat.restarts": result.restarts,
            "sat.learnt_clauses": result.learnt_clauses,
            "sat.incremental.cold_conflicts": result.conflicts,
        }
        if result.status == "unknown":
            return DepthOutcome(status="unknown", metrics=metrics,
                                detail=dict(detail, timeout=True))
        if result.is_unsat:
            return DepthOutcome(status="unsat", detail=detail, metrics=metrics)
        assert result.model is not None
        with obs.span("sat.canonicalize", depth=depth):
            model, canon = lexmin_model(
                solver, canonical_select_order(select_vars), result.model,
                deadline=deadline, tick=tick)
        metrics["sat.canonical_solves"] = canon["solves"]
        metrics["sat.canonical_conflicts"] = canon["conflicts"]
        metrics["sat.canonical_complete"] = canon["complete"]
        circuit = self._decode(model, select_vars)
        if not self.spec.matches_circuit(circuit):
            raise AssertionError(
                "SAT engine produced a circuit violating the specification — "
                "encoding bug")
        cost = circuit.quantum_cost()
        return DepthOutcome(status="sat", circuits=[circuit],
                            num_solutions=None, quantum_cost_min=cost,
                            quantum_cost_max=cost, detail=detail,
                            metrics=metrics)

    def _decode(self, model, select_vars: List[List[int]]) -> Circuit:
        gates = []
        for block in select_vars:
            code = sum((1 << j) for j, var in enumerate(block) if model[var])
            if code < self.library.size():
                gates.append(self.library[code])
        return Circuit(self.n, gates)


class _IncrementalSatSession:
    """Warm-solver state for one iterative-deepening run.

    The encoding is *monotone in depth*: universal-gate stages are only
    ever appended, the depth-``d`` output constraint lives behind guard
    literal ``A_d`` (clauses ``A_d -> line matches spec``), and a depth
    query is ``solve(assumptions=[A_d])``.  Restricted to the stage
    ``< d`` select variables, the model set under ``A_d`` equals the
    scratch depth-``d`` model set — trailing stages are unconstrained
    and dormant guards are free — so the per-depth sat/unsat answers
    match the scratch path exactly, and the lexmin canonicalization
    makes the extracted circuits match too.

    Depth queries need not be contiguous (the speculative pipeline's
    workers see gapped windows): missing stages are appended on demand
    and per-depth snapshots of the symbolic row lines allow building a
    guard for any already-built depth.
    """

    def __init__(self, engine: SatBaselineEngine):
        self.engine = engine
        self.cnf = Cnf()
        self.builder = ExprBuilder(self.cnf)
        self.algebra = ExprAlgebra(self.builder)
        self.solver = CdclSolver()
        self._synced = 0  # clause cursor into self.cnf.clauses
        self.select_blocks: List[List[int]] = []
        self.guards: Dict[int, int] = {}
        builder = self.builder
        self.care_rows = [
            (row_input, row)
            for row_input, row in enumerate(engine.spec.rows)
            if not all(value is None for value in row)
        ]
        # snapshots[d]: per care row, the symbolic line signals after d
        # stages; snapshot 0 is the row's constant inputs.
        self.snapshots: List[List[Tuple[int, list]]] = [[
            (row_input,
             [builder.const(bool((row_input >> l) & 1))
              for l in range(engine.n)])
            for row_input, _ in self.care_rows
        ]]

    # -- encoding growth ---------------------------------------------------------

    def _extend_to(self, depth: int) -> None:
        engine = self.engine
        while len(self.select_blocks) < depth:
            engine.cancel_token.raise_if_cancelled()
            block = [self.cnf.new_var() for _ in range(engine.width)]
            select_exprs = [self.builder.var(v) for v in block]
            self.select_blocks.append(block)
            new_snapshot: List[Tuple[int, list]] = []
            for row_input, lines in self.snapshots[-1]:
                engine.cancel_token.raise_if_cancelled()
                new_lines = universal_gate_stage(
                    lines, select_exprs, engine.library, self.algebra)
                new_snapshot.append((row_input, new_lines))
            self.snapshots.append(new_snapshot)

    def _guard(self, depth: int) -> int:
        guard = self.guards.get(depth)
        if guard is not None:
            return guard
        engine = self.engine
        builder = self.builder
        guard = self.cnf.new_var()
        rows = {row_input: row for row_input, row in self.care_rows}
        for row_input, lines in self.snapshots[depth]:
            row = rows[row_input]
            for l, value in enumerate(row):
                if value is None:
                    continue
                term = builder.xnor(lines[l], builder.const(bool(value)))
                self.cnf.add_clause((-guard, builder.tseitin(term)))
        self.guards[depth] = guard
        return guard

    def _sync(self) -> int:
        """Push newly-encoded clauses into the live solver."""
        self.solver.ensure_vars(self.cnf.num_vars)
        clauses = self.cnf.clauses
        added = len(clauses) - self._synced
        while self._synced < len(clauses):
            self.solver.add_clause(clauses[self._synced])
            self._synced += 1
        return added

    # -- depth decision ----------------------------------------------------------

    def decide(self, depth: int,
               time_limit: Optional[float] = None) -> DepthOutcome:
        engine = self.engine
        tick = engine.cancel_token.raise_if_cancelled
        reused = self.solver.num_clauses + self.solver.num_learnts
        with obs.span("sat.encode", depth=depth, incremental=True):
            self._extend_to(depth)
            guard = self._guard(depth)
            added = self._sync()
        detail = {"vars": self.cnf.num_vars, "clauses": len(self.cnf.clauses),
                  "incremental": True}
        deadline = (None if time_limit is None
                    else time.perf_counter() + time_limit)
        with obs.span("sat.solve", depth=depth, incremental=True):
            result = self.solver.solve(time_limit=time_limit, tick=tick,
                                       assumptions=[guard])
        metrics = {
            "sat.vars": self.cnf.num_vars,
            "sat.clauses": len(self.cnf.clauses),
            "sat.conflicts": result.conflicts,
            "sat.decisions": result.decisions,
            "sat.propagations": result.propagations,
            "sat.restarts": result.restarts,
            "sat.learnt_clauses": result.learnt_clauses,
            "sat.incremental.clauses_reused": reused,
            "sat.incremental.clauses_added": added,
            "sat.incremental.assumptions": 1,
            "sat.incremental.warm_conflicts": result.conflicts,
        }
        if result.status == "unknown":
            return DepthOutcome(status="unknown", metrics=metrics,
                                detail=dict(detail, timeout=True))
        if result.is_unsat:
            return DepthOutcome(status="unsat", detail=detail, metrics=metrics)
        assert result.model is not None
        select_vars = self.select_blocks[:depth]
        with obs.span("sat.canonicalize", depth=depth):
            model, canon = lexmin_model(
                self.solver, canonical_select_order(select_vars),
                result.model, assumptions=[guard], deadline=deadline,
                tick=tick)
        metrics["sat.canonical_solves"] = canon["solves"]
        metrics["sat.canonical_conflicts"] = canon["conflicts"]
        metrics["sat.canonical_complete"] = canon["complete"]
        circuit = engine._decode(model, select_vars)
        if not engine.spec.matches_circuit(circuit):
            raise AssertionError(
                "SAT engine produced a circuit violating the specification — "
                "encoding bug")
        cost = circuit.quantum_cost()
        return DepthOutcome(status="sat", circuits=[circuit],
                            num_solutions=None, quantum_cost_min=cost,
                            quantum_cost_max=cost, detail=detail,
                            metrics=metrics)
