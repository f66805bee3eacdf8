"""Integration tests reproducing the paper's headline results.

Fast qualitative checks run always; the heavyweight full-tier instances
(graycode6, ALU, mod5d1, hwb4) are marked ``slow`` and deselected by
default — the benchmark harness regenerates the full tables.
"""

import os

import pytest

from repro.core.library import GateLibrary
from repro.functions import get_spec
from repro.synth import synthesize


class TestTable1MinimalDepths:
    """D column of Table 1 (default-tier rows)."""

    def test_3_17_depth_6(self):
        result = synthesize(get_spec("3_17"), engine="bdd")
        assert result.depth == 6

    def test_rd32_v0_depth_4(self):
        result = synthesize(get_spec("rd32-v0"), engine="bdd")
        assert result.depth == 4

    def test_mod5mils_standin_depth_5(self):
        result = synthesize(get_spec("mod5mils"), engine="bdd")
        assert result.depth == 5

    def test_all_engines_agree_on_3_17(self):
        spec = get_spec("3_17")
        depths = {}
        for engine in ("bdd", "sword", "sat", "qbf"):
            result = synthesize(spec, engine=engine, time_limit=300)
            assert result.realized, engine
            depths[engine] = result.depth
        assert set(depths.values()) == {6}


class TestAllSolutionsAndQuantumCosts:
    """Table 2: the BDD engine returns every minimal network."""

    def test_solution_count_exceeds_one_and_costs_spread(self):
        result = synthesize(get_spec("mod5-v0_s"), engine="bdd")
        assert result.realized
        assert result.num_solutions > 1
        assert result.quantum_cost_min < result.quantum_cost_max
        # Cheapest circuit is recoverable and valid.
        best = result.circuit
        assert best.quantum_cost() == result.quantum_cost_min
        assert get_spec("mod5-v0_s").matches_circuit(best)

    def test_every_enumerated_circuit_is_a_distinct_realization(self):
        spec = get_spec("3_17")
        result = synthesize(spec, engine="bdd")
        assert len(set(result.circuits)) == result.num_solutions
        for circuit in result.circuits:
            assert spec.matches_circuit(circuit)
            assert len(circuit) == result.depth


class TestTable3ExtendedLibraries:
    """Extending the gate library never hurts and sometimes helps."""

    @pytest.mark.parametrize("name", ["3_17", "rd32-v0", "mod5-v0_s"])
    def test_extended_libraries_never_deeper(self, name):
        spec = get_spec(name)
        baseline = synthesize(spec, kinds=("mct",), engine="bdd",
                              time_limit=300)
        for kinds in (("mct", "mcf"), ("mct", "peres"),
                      ("mct", "mcf", "peres")):
            extended = synthesize(spec, kinds=kinds, engine="bdd",
                                  time_limit=300)
            assert extended.realized
            assert extended.depth <= baseline.depth, kinds

    def test_peres_strictly_improves_some_function(self):
        # The paper's hwb4 shrinks 11 -> 8 with Peres gates; the scaled
        # witness here: a function that is exactly one Peres gate needs
        # two MCT gates.
        from repro.core.gates import Peres
        from repro.core.spec import Specification
        perm = tuple(Peres(0, 1, 2).apply(x) for x in range(8))
        spec = Specification.from_permutation(perm, name="peres-fn")
        mct = synthesize(spec, kinds=("mct",), engine="bdd")
        with_peres = synthesize(spec, kinds=("mct", "peres"), engine="bdd")
        assert mct.depth == 2
        assert with_peres.depth == 1
        assert with_peres.quantum_cost_min <= mct.quantum_cost_min


class TestRelativeEnginePerformance:
    """Table 1's qualitative claim: the BDD engine wins on non-trivial
    functions.  Wall-clock assertions use a generous factor to stay
    robust on shared machines."""

    def test_bdd_beats_sat_baseline_on_3_17(self):
        # A wall-clock race between two engines must not be decided by
        # garbage left behind by unrelated tests: the BDD engine's
        # allocation rate makes it pay full-heap gen-2 collection scans
        # far more often than the SAT loop, so freeze the pre-existing
        # heap out of the collector for the duration of the race.
        import gc
        spec = get_spec("3_17")
        gc.collect()
        gc.freeze()
        try:
            bdd = synthesize(spec, engine="bdd")
            sat = synthesize(spec, engine="sat", time_limit=600)
        finally:
            gc.unfreeze()
        assert bdd.realized and sat.realized
        assert bdd.runtime < sat.runtime

    def test_encodings_tell_the_story(self):
        """Polynomial QBF matrix vs exponential per-row SAT instance."""
        from repro.functions.parametric import graycode
        from repro.synth.qbf_engine import QbfSolverEngine
        from repro.synth.sat_engine import SatBaselineEngine
        ratios = []
        for n in (3, 4, 5):
            spec = graycode(n)
            library = GateLibrary.mct(n)
            sat_cnf, _ = SatBaselineEngine(spec, library).encode(3)
            qbf_formula, _ = QbfSolverEngine(spec, library).encode(3)
            ratios.append(len(sat_cnf.clauses) / len(qbf_formula.cnf.clauses))
        assert ratios[0] < ratios[1] < ratios[2]


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("REPRO_FULL") != "1",
                    reason="full-tier reproduction; set REPRO_FULL=1 "
                           "(minutes of pure-Python BDD time per case)")
class TestFullTier:
    def test_graycode6_depth_5(self):
        result = synthesize(get_spec("graycode6"), engine="bdd",
                            time_limit=600)
        assert result.depth == 5
        assert result.num_solutions == 1
        assert result.quantum_cost_min == 5  # five CNOTs

    def test_alu_v0_depth_6(self):
        result = synthesize(get_spec("ALU-v0"), engine="bdd", time_limit=600)
        assert result.depth == 6  # matches the paper's ALU-v0 row

    def test_mod5d1_standin_depth_7(self):
        result = synthesize(get_spec("mod5d1"), engine="bdd", time_limit=600)
        assert result.depth == 7  # the paper reports D = 7 for mod5d1

    def test_hwb4_depth_11(self):
        result = synthesize(get_spec("hwb4"), engine="bdd", time_limit=1800)
        assert result.depth == 11  # the paper's hardest reported instance
        assert result.num_solutions == 264
        assert result.quantum_cost_min == 23
