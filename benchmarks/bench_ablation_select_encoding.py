"""Ablation A5 — gate-select encoding in the SAT baseline: binary vs one-hot.

The original SAT formulation [9] selects the gate per cascade position
with one-hot variables and an exactly-one constraint; the universal-gate
view suggests a binary (logarithmic) encoding instead.  This bench
compares instance sizes and end-to-end synthesis times of the two.  The
binary side is the SAT baseline engine (``synthesize(engine="sat")``);
the one-hot side is built here from the public CNF API — per care row,
each position's gate effects (:meth:`Gate.symbolic_deltas`) are gated
by their selector — and deepened from depth 0 with one cold
:class:`CdclSolver` call per depth.  Expected shape: one-hot instances
carry ``Theta(q^2)`` pairwise-exclusion clauses per position and more
variables; binary stays smaller.  Either way both remain exponentially
larger than the QBF matrix (ablation A4).  Both encodings must find the
same minimal depth.

Run:  pytest benchmarks/bench_ablation_select_encoding.py --benchmark-only -s
"""

import time

import pytest

from _tables import print_table
from repro.core.circuit import Circuit
from repro.core.library import GateLibrary
from repro.functions import get_spec
from repro.sat.cdcl import CdclSolver
from repro.sat.cnf import Cnf
from repro.sat.expr import ExprBuilder
from repro.synth import synthesize
from repro.synth.sat_engine import SatBaselineEngine
from repro.synth.universal import ExprAlgebra

CASES = ["graycode4", "3_17", "rd32-v0"]

#: Synthesis budget per case, seconds.
TIME_LIMIT = 300

_results = {}


def encode_onehot(spec, library, depth):
    """The depth-``d`` SAT instance with one selector per (position, gate).

    One-hot has no identity padding: the instance asks for exactly
    ``depth`` gates.  Returns ``(cnf, selector blocks)``.
    """
    cnf = Cnf()
    q = library.size()
    blocks = [[cnf.new_var() for _ in range(q)] for _ in range(depth)]
    for block in blocks:
        cnf.add_clause(block)  # at least one gate
        for i in range(q):
            for j in range(i + 1, q):
                cnf.add_clause((-block[i], -block[j]))  # at most one
    builder = ExprBuilder(cnf)
    algebra = ExprAlgebra(builder)
    n = spec.n_lines
    for row_input, row in enumerate(spec.rows):
        if all(value is None for value in row):
            continue
        lines = [builder.const(bool((row_input >> l) & 1)) for l in range(n)]
        for block in blocks:
            deltas = [builder.false] * n
            for code, gate in enumerate(library):
                selector = builder.var(block[code])
                for line, delta in gate.symbolic_deltas(lines, algebra).items():
                    deltas[line] = builder.or_(
                        [deltas[line], builder.and_([selector, delta])])
            lines = [builder.xor(lines[l], deltas[l]) for l in range(n)]
        for l, value in enumerate(row):
            if value is not None:
                builder.assert_true(
                    builder.xnor(lines[l], builder.const(bool(value))))
    return cnf, blocks


def synthesize_onehot(spec, library, time_limit):
    """Deepen from depth 0; returns ``(depth, circuit, cnf)`` at the first
    satisfiable depth, ``depth`` None when the budget runs out."""
    deadline = time.perf_counter() + time_limit
    depth = 0
    while True:
        cnf, blocks = encode_onehot(spec, library, depth)
        result = CdclSolver(cnf).solve(
            time_limit=max(0.0, deadline - time.perf_counter()))
        if result.status == "unknown":
            return None, None, cnf
        if result.is_sat:
            gates = [library[next(k for k, var in enumerate(block)
                                  if result.model[var])]
                     for block in blocks]
            return depth, Circuit(spec.n_lines, gates), cnf
        depth += 1


def _run(name, encoding):
    spec = get_spec(name)
    library = GateLibrary.mct(spec.n_lines)
    start = time.perf_counter()
    if encoding == "onehot":
        depth, circuit, cnf = synthesize_onehot(spec, library, TIME_LIMIT)
    else:
        result = synthesize(spec, engine="sat", time_limit=TIME_LIMIT)
        depth, circuit = result.depth, result.circuit
        cnf, _ = SatBaselineEngine(spec, library).encode(
            depth if result.realized else 3)
    runtime = time.perf_counter() - start
    _results[(name, encoding)] = (depth, circuit, cnf, runtime)
    return depth, circuit


@pytest.mark.parametrize("encoding", ["binary", "onehot"])
@pytest.mark.parametrize("name", CASES)
def test_select_encoding(benchmark, name, encoding):
    depth, circuit = benchmark.pedantic(_run, args=(name, encoding),
                                        rounds=1, iterations=1)
    assert depth is not None
    assert get_spec(name).matches_circuit(circuit)
    if (name, "binary") in _results and (name, "onehot") in _results:
        # Identity: the encoding changes the instance, never the minimum.
        assert _results[(name, "binary")][0] == _results[(name, "onehot")][0]


def teardown_module(module):
    header = (f"{'BENCH':12s} {'encoding':>8s} {'D':>3s} {'vars':>8s} "
              f"{'clauses':>8s} {'time':>9s}")
    rows = []
    for name in CASES:
        for encoding in ("binary", "onehot"):
            entry = _results.get((name, encoding))
            if entry is None:
                continue
            depth, _, cnf, runtime = entry
            rows.append(f"{name:12s} {encoding:>8s} {str(depth):>3s} "
                        f"{cnf.num_vars:8d} {len(cnf.clauses):8d} "
                        f"{runtime:8.2f}s")
    print_table("ABLATION A5 — SAT select encoding: binary vs one-hot",
                header, rows,
                "Both encodings must find the same minimal depth.")
