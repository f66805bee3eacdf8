"""Ablation A1 — BDD variable order: X before Y vs Y before X.

Section 5.2 fixes the order "X, Y" and warns that the alternative
"leads to a blow up of the BDD representation since in this case the BDD
for F_d would already represent all possible functions in n variables
which are synthesizable with at most d gates".  This bench measures
exactly that: the same depth decision is run monolithically under both
orders, recording runtime and the node count of the manager afterwards.
The X,Y side is the BDD engine itself (``incremental=False``); the Y,X
side is built here from the public BDD API — select blocks created
first, the cascade of :func:`universal_gate_stage`, the comparator
conjoined and the inputs quantified with :meth:`BddManager.forall`
(the engine's row fold needs the inputs on top, so it cannot run under
this order).  Both orders must report the same verdict and solution
count; the Y,X manager must be the larger.

Run:  pytest benchmarks/bench_ablation_var_order.py --benchmark-only -s
"""

import pytest

from _tables import print_table
from repro.bdd.manager import FALSE, BddManager
from repro.core.library import GateLibrary
from repro.functions import get_spec
from repro.synth.bdd_engine import BddSynthesisEngine
from repro.synth.universal import BddAlgebra, universal_gate_stage

#: (benchmark, depth of the decision to measure — its minimal depth)
CASES = [("graycode4", 3), ("3_17", 6), ("rd32-v0", 4)]

_results = {}


def decide_y_first(spec, library, depth):
    """The depth-``d`` decision with every select block above the inputs.

    Returns ``(status, solution count, manager node count)``.  Blocks
    are created MSB-first, as the engine creates them.
    """
    manager = BddManager()
    width = library.select_bits()
    y_vars = [[manager.add_var(f"y{p}_{j}")
               for j in reversed(range(width))][::-1]
              for p in range(depth)]
    x_vars = [manager.add_var(f"x{l}") for l in range(spec.n_lines)]
    algebra = BddAlgebra(manager)
    lines = [manager.var(v) for v in x_vars]
    for block in y_vars:
        lines = universal_gate_stage(lines, [manager.var(v) for v in block],
                                     library, algebra)
    on = [manager.from_minterms(x_vars, spec.on_set(l))
          for l in range(spec.n_lines)]
    dc = [manager.from_minterms(x_vars, spec.dc_set(l))
          for l in range(spec.n_lines)]
    equality = manager.conj([manager.or_(dc[l], manager.xnor(lines[l], on[l]))
                             for l in range(spec.n_lines)])
    solutions = manager.forall(equality, x_vars)
    nodes = manager.node_count()
    if solutions == FALSE:
        return "unsat", 0, nodes
    select = [v for block in y_vars for v in block]
    return "sat", manager.count_models(solutions, select), nodes


def _run(name, depth, order):
    spec = get_spec(name)
    library = GateLibrary.mct(spec.n_lines)
    if order == "yx":
        result = decide_y_first(spec, library, depth)
    else:
        outcome = BddSynthesisEngine(spec, library,
                                     incremental=False).decide(depth)
        result = (outcome.status, outcome.num_solutions or 0,
                  outcome.detail["nodes"])
    _results[(name, order)] = result
    return result


@pytest.mark.parametrize("order", ["xy", "yx"])
@pytest.mark.parametrize("name,depth", CASES, ids=[c[0] for c in CASES])
def test_var_order(benchmark, name, depth, order):
    status, count, nodes = benchmark.pedantic(_run, args=(name, depth, order),
                                              rounds=1, iterations=1)
    assert status == "sat"
    other = "xy" if order == "yx" else "yx"
    if (name, other) in _results:
        xy, yx = _results[(name, "xy")], _results[(name, "yx")]
        # Identity: the order changes the diagrams, never the answer.
        assert xy[:2] == yx[:2], (name, xy, yx)
        assert yx[2] > xy[2], (name, xy, yx)


def teardown_module(module):
    header = (f"{'BENCH':12s} {'order':>6s} {'status':>7s} "
              f"{'#SOL':>8s} {'manager nodes':>14s}")
    rows = []
    for name, _ in CASES:
        for order in ("xy", "yx"):
            entry = _results.get((name, order))
            if entry is None:
                continue
            status, count, nodes = entry
            rows.append(f"{name:12s} {order:>6s} {status:>7s} "
                        f"{count:8d} {nodes:14d}")
    print_table("ABLATION A1 — variable order X,Y vs Y,X (monolithic)",
                header, rows,
                "Paper: the Y,X order blows up; X,Y is essential.")
