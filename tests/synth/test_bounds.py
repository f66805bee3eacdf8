"""Depth-bound tests and driver integration of use_bounds."""

import pytest

from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.synth import synthesize
from repro.synth.bounds import lower_bound, upper_bound
from tests.conftest import random_small_spec


class TestLowerBound:
    def test_identity_is_zero(self):
        spec = Specification.from_permutation((0, 1, 2, 3))
        assert lower_bound(spec, GateLibrary.mct(2)) == 0

    def test_single_line_change_is_one(self):
        spec = Specification.from_permutation((1, 0))  # NOT on line 0
        assert lower_bound(spec, GateLibrary.mct(1)) == 1

    def test_swap_is_two_with_mct_one_with_mcf(self):
        swap = Specification.from_permutation((0, 2, 1, 3))
        assert lower_bound(swap, GateLibrary.mct(2)) == 2
        assert lower_bound(swap, GateLibrary.mct_mcf(2)) == 1

    def test_dont_cares_relax_the_bound(self):
        # Only line 0 specified and identity-compatible.
        rows = [(0, None), (1, None), (0, None), (1, None)]
        spec = Specification(2, rows)
        assert lower_bound(spec, GateLibrary.mct(2)) == 0

    def test_admissible_on_random_functions(self, rng):
        library = GateLibrary.mct(3)
        for _ in range(10):
            spec = random_small_spec(rng, 3, seed_gates=rng.randint(0, 4))
            result = synthesize(spec, engine="bdd")
            assert lower_bound(spec, library) <= result.depth

    def test_width_mismatch_rejected(self):
        spec = Specification.from_permutation((0, 1))
        with pytest.raises(ValueError):
            lower_bound(spec, GateLibrary.mct(3))


class TestUpperBound:
    def test_matches_mmd_length(self):
        spec = Specification.from_permutation((7, 1, 4, 3, 0, 2, 6, 5))
        from repro.synth.transformation import transformation_synthesize
        assert upper_bound(spec) == len(transformation_synthesize(spec))

    def test_none_for_incomplete(self):
        spec = Specification(1, [(None,), (1,)])
        assert upper_bound(spec) is None


class TestDriverIntegration:
    def test_bounded_run_skips_shallow_depths(self):
        swap = Specification.from_permutation((0, 2, 1, 3), name="swap")
        bounded = synthesize(swap, engine="bdd", use_bounds=True)
        assert bounded.realized and bounded.depth == 3
        probed = [s.depth for s in bounded.per_depth]
        assert probed[0] == 2  # depths 0 and 1 skipped by the lower bound

    def test_bounded_results_match_unbounded(self, rng):
        for _ in range(5):
            spec = random_small_spec(rng, 3, seed_gates=rng.randint(1, 3))
            plain = synthesize(spec, engine="bdd")
            bounded = synthesize(spec, engine="bdd", use_bounds=True)
            assert bounded.depth == plain.depth
            assert bounded.num_solutions == plain.num_solutions

    def test_bounds_with_non_mct_library_still_sound(self):
        swap = Specification.from_permutation((0, 2, 1, 3), name="swap")
        result = synthesize(swap, kinds=("mct", "mcf"), engine="bdd",
                            use_bounds=True)
        assert result.realized and result.depth == 1


class TestPlanDepthRange:
    """bounds × plan_depth_range: the range every execution mode shares."""

    def test_default_plan_starts_at_zero_with_formula_limit(self):
        from repro.synth.driver import default_gate_limit, plan_depth_range
        swap = Specification.from_permutation((0, 2, 1, 3), name="swap")
        start, limit = plan_depth_range(swap, GateLibrary.mct(2))
        assert start == 0
        assert limit == default_gate_limit(2)

    def test_lower_bound_skips_depths(self):
        from repro.synth.driver import plan_depth_range
        swap = Specification.from_permutation((0, 2, 1, 3), name="swap")
        library = GateLibrary.mct(2)
        start, _ = plan_depth_range(swap, library, use_bounds=True)
        assert start == lower_bound(swap, library) == 2

    def test_mmd_cap_tightens_the_limit_for_mct(self):
        from repro.synth.driver import default_gate_limit, plan_depth_range
        spec = Specification.from_permutation((7, 1, 4, 3, 0, 2, 6, 5),
                                              name="3_17")
        _, limit = plan_depth_range(spec, GateLibrary.mct(3),
                                    use_bounds=True)
        assert limit == upper_bound(spec)
        assert limit < default_gate_limit(3)

    def test_explicit_max_gates_wins_over_mmd_cap(self):
        from repro.synth.driver import plan_depth_range
        spec = Specification.from_permutation((7, 1, 4, 3, 0, 2, 6, 5))
        _, limit = plan_depth_range(spec, GateLibrary.mct(3), max_gates=4,
                                    use_bounds=True)
        assert limit == 4

    def test_incomplete_spec_falls_back_to_formula_limit(self):
        from repro.synth.driver import default_gate_limit, plan_depth_range
        # upper_bound() is None for incompletely specified functions —
        # the plan must keep the formula limit, not crash or cap at None.
        spec = Specification(2, [(0, None), (1, None),
                                 (None, None), (None, None)])
        start, limit = plan_depth_range(spec, GateLibrary.mct(2),
                                        use_bounds=True)
        assert start == lower_bound(spec, GateLibrary.mct(2))
        assert limit == default_gate_limit(2)

    def test_non_mct_library_keeps_formula_limit(self):
        from repro.synth.driver import default_gate_limit, plan_depth_range
        # The MMD cap is a Toffoli-network bound; with a library missing
        # MCT gates it is not admissible and must not be applied.
        spec = Specification.from_permutation((0, 2, 1, 3), name="swap")
        library = GateLibrary.from_kinds(2, ("mcf",))
        _, limit = plan_depth_range(spec, library, use_bounds=True)
        assert limit == default_gate_limit(2)

    def test_serial_driver_follows_the_plan(self):
        from repro.synth.driver import plan_depth_range
        swap = Specification.from_permutation((0, 2, 1, 3), name="swap")
        library = GateLibrary.mct(2)
        start, _ = plan_depth_range(swap, library, use_bounds=True)
        result = synthesize(swap, library=library, engine="sat",
                            use_bounds=True)
        assert result.realized
        assert [s.depth for s in result.per_depth][0] == start
