"""Exact synthesis with output permutation (the follow-up extension).

Wille/Große/Dueck/Drechsler's companion paper ("Reversible Logic
Synthesis with Output Permutation") observes that in many applications
the assignment of function outputs to circuit lines is free: a network
realizing any *line-permuted* version of the specification is equally
useful, and the freedom often buys a smaller minimal gate count.

The BDD formulation makes this nearly free to support: the equality
check of Section 5.2 becomes

    OR_pi  AND_l ( f_{pi(l)}^dc OR (F_{d,l} XNOR f_{pi(l)}^on) )

over the output permutations ``pi``.  The per-line agreement BDDs
``agree[l][m] = dc_m OR (F_{d,l} XNOR on_m)`` are shared across the
``n!`` conjunctions, so the extra work per depth is ``n^2`` BDD
operations plus cheap ANDs — and the engine still recovers *all*
minimal networks, now per winning permutation.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd.manager import FALSE
from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.synth.bdd_engine import BddSynthesisEngine, _Deadline
from repro.synth.driver import default_gate_limit
from repro.synth.result import DepthStat

__all__ = ["OutputPermutationResult", "synthesize_with_output_permutation"]


@dataclass
class OutputPermutationResult:
    """Outcome of output-permutation synthesis.

    ``realizations`` maps each winning output permutation (a tuple
    ``pi`` meaning circuit line ``l`` carries specification output
    ``pi[l]``) to the list of minimal circuits realizing it.
    """

    spec_name: str
    status: str  # "realized", "timeout" or "gate_limit"
    depth: Optional[int] = None
    #: minimal depth with the identity permutation, when it falls within
    #: the explored range (i.e. when relabeling buys nothing); None when
    #: the permuted search succeeded strictly earlier.
    fixed_depth: Optional[int] = None
    realizations: Dict[Tuple[int, ...], List] = field(default_factory=dict)
    num_solutions: int = 0
    quantum_cost_min: Optional[int] = None
    runtime: float = 0.0
    per_depth: List[DepthStat] = field(default_factory=list)

    @property
    def realized(self) -> bool:
        return self.status == "realized"

    @property
    def best_permutation(self) -> Optional[Tuple[int, ...]]:
        best = None
        best_cost = None
        for permutation, circuits in self.realizations.items():
            for circuit in circuits:
                cost = circuit.quantum_cost()
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best = permutation
        return best


def _permuted_matches(spec: Specification, circuit,
                      permutation: Sequence[int]) -> bool:
    """Does the circuit realize the spec with outputs permuted by pi?"""
    for i, row in enumerate(spec.rows):
        if all(v is None for v in row):
            continue
        out = circuit.simulate(i)
        for line in range(spec.n_lines):
            required = row[permutation[line]]
            if required is not None and ((out >> line) & 1) != required:
                return False
    return True


def synthesize_with_output_permutation(
    spec: Specification,
    library: Optional[GateLibrary] = None,
    kinds: Sequence[str] = ("mct",),
    max_gates: Optional[int] = None,
    time_limit: Optional[float] = None,
    max_enumerate: int = 10_000,
) -> OutputPermutationResult:
    """Minimal gate count over all output permutations (BDD engine).

    Returns every winning permutation with its minimal networks, plus
    the fixed-output minimal depth for comparison (computed from the
    same cascade, so the overhead is small).
    """
    if library is None:
        library = GateLibrary.from_kinds(spec.n_lines, kinds)
    engine = BddSynthesisEngine(spec, library)
    n = spec.n_lines
    manager = engine.manager
    limit = max_gates if max_gates is not None else default_gate_limit(n)
    identity = tuple(range(n))

    result = OutputPermutationResult(spec_name=spec.name or "anonymous",
                                     status="gate_limit")
    start = time.perf_counter()
    deadline = _Deadline(time_limit, manager=manager)

    try:
        for depth in range(limit + 1):
            step_start = time.perf_counter()
            engine._advance_to(depth, deadline)
            # Shared per-line agreement BDDs: line l carrying output m.
            agree = [[manager.or_(engine.dc_bdds[m],
                                  manager.xnor(engine.lines[l],
                                               engine.on_bdds[m]))
                      for m in range(n)] for l in range(n)]
            deadline.check()
            winning: Dict[Tuple[int, ...], int] = {}
            for permutation in itertools.permutations(range(n)):
                equality = manager.conj(agree[l][permutation[l]]
                                        for l in range(n))
                solutions = manager.forall(equality, engine.x_vars)
                if solutions != FALSE:
                    winning[permutation] = solutions
                deadline.check()
            decision = "sat" if winning else "unsat"
            result.per_depth.append(DepthStat(
                depth=depth, decision=decision,
                runtime=time.perf_counter() - step_start))
            if result.fixed_depth is None and identity in winning:
                result.fixed_depth = depth
            if not winning:
                continue
            # Extract circuits per winning permutation.
            result.status = "realized"
            result.depth = depth
            all_select = [v for block in engine.y_vars for v in block]
            for permutation, solutions in winning.items():
                circuits = []
                if all_select:
                    for model in manager.iter_models(solutions, all_select):
                        circuits.append(engine._decode(model, engine.y_vars))
                        if len(circuits) >= max_enumerate:
                            break
                else:
                    from repro.core.circuit import Circuit
                    circuits.append(Circuit(n))
                for circuit in circuits:
                    if not _permuted_matches(spec, circuit, permutation):
                        raise AssertionError(
                            "output-permutation synthesis produced a wrong "
                            "circuit — encoding bug")
                result.realizations[permutation] = circuits
                result.num_solutions += len(circuits)
            costs = [c.quantum_cost()
                     for circuits in result.realizations.values()
                     for c in circuits]
            result.quantum_cost_min = min(costs)
            break
    except TimeoutError:
        result.status = "timeout"

    # If the permuted search stopped before the identity permutation was
    # realizable, the caller can compare against plain synthesis.
    result.runtime = time.perf_counter() - start
    return result
