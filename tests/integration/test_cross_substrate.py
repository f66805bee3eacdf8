"""Cross-substrate consistency: the same synthesis question answered by
independent machinery must agree.

These tests tie the whole stack together: the QBF encoding evaluated by
the brute-force oracle, the QDPLL solver, the expansion solver and the
BDD engine all decide the same depth queries; the SAT baseline encoding
restricted to a concrete gate assignment simulates correctly.
"""

import pytest

from repro.core.circuit import Circuit
from repro.core.library import GateLibrary
from repro.core.spec import Specification
from tests.qbf.bruteforce import brute_force_qbf
from repro.qbf.qdpll import solve_qbf
from repro.synth.bdd_engine import BddSynthesisEngine
from repro.synth.qbf_engine import QbfSolverEngine
from repro.synth.sat_engine import SatBaselineEngine
from tests.conftest import random_small_spec


def cnot_spec():
    perm = []
    for i in range(4):
        a, b = i & 1, (i >> 1) & 1
        perm.append(a | ((a ^ b) << 1))
    return Specification.from_permutation(perm, name="cnot")


class TestQbfEncodingAgainstOracle:
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_brute_force_agrees_with_bdd_engine(self, depth):
        spec = cnot_spec()
        library = GateLibrary.mct(2)
        formula, _ = QbfSolverEngine(spec, library).encode(depth)
        oracle_truth, _ = brute_force_qbf(formula)
        bdd = BddSynthesisEngine(spec, library, incremental=False)
        assert oracle_truth == (bdd.decide(depth).status == "sat")

    @pytest.mark.parametrize("seed", range(4))
    def test_random_functions_depth_1(self, seed, rng):
        spec = random_small_spec(rng, 2, seed_gates=rng.randint(0, 2))
        library = GateLibrary.mct(2)
        formula, _ = QbfSolverEngine(spec, library).encode(1)
        oracle_truth, _ = brute_force_qbf(formula)
        qdpll = solve_qbf(formula)
        bdd = BddSynthesisEngine(spec, library, incremental=False)
        expected = bdd.decide(1).status == "sat"
        assert oracle_truth == expected
        assert qdpll.is_sat == expected


class TestSatEncodingSimulation:
    def test_pinning_selects_simulates_the_circuit(self):
        """Fixing all select variables to a concrete cascade makes the
        SAT instance satisfiable iff that cascade realizes the spec."""
        spec = cnot_spec()
        library = GateLibrary.mct(2)
        engine = SatBaselineEngine(spec, library)
        from repro.sat.cdcl import solve_cnf
        for code in range(library.size()):
            cnf, select_vars = engine.encode(depth=1)
            for j, var in enumerate(select_vars[0]):
                cnf.add_unit(var if (code >> j) & 1 else -var)
            circuit = Circuit(2, [library[code]])
            expected = spec.matches_circuit(circuit)
            assert solve_cnf(cnf).is_sat == expected, code


class TestEndToEndArtifacts:
    def test_synthesis_to_real_to_verify_round_trip(self, tmp_path):
        """Full toolchain: synthesize, export .real, re-parse, check
        equivalence and NCV unitary."""
        from repro.core.realfmt import parse_real, write_real
        from repro.quantum import (circuit_unitary, decompose_circuit,
                                   permutation_unitary, unitaries_equal)
        from repro.synth import synthesize
        from repro.verify import circuits_equivalent

        spec = Specification.from_permutation((7, 1, 4, 3, 0, 2, 6, 5),
                                              name="3_17")
        result = synthesize(spec, engine="bdd")
        best = result.circuit
        target = tmp_path / "out.real"
        target.write_text(write_real(best, name="3_17"))
        parsed, _ = parse_real(target.read_text())
        assert circuits_equivalent(best, parsed)
        elementary = decompose_circuit(parsed)
        assert unitaries_equal(circuit_unitary(elementary, 3),
                               permutation_unitary(spec.permutation()))
