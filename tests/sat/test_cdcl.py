"""CDCL solver tests: crafted instances plus randomized cross-checks."""

import random

import pytest

import repro.sat.cdcl as cdcl
from repro.bdd.tables import kernel_available
from repro.sat.cdcl import CdclSolver, luby, solve_cnf
from repro.sat.cnf import Cnf, evaluate_cnf
from tests.sat.dpll import dpll_solve


def brute_force_sat(cnf):
    for bits in range(1 << cnf.num_vars):
        model = {v: bool((bits >> (v - 1)) & 1) for v in range(1, cnf.num_vars + 1)}
        if evaluate_cnf(cnf, model):
            return True
    return False


def pigeonhole(holes):
    """PHP(holes+1, holes) — classically hard UNSAT family."""
    pigeons = holes + 1
    cnf = Cnf(pigeons * holes)

    def var(p, h):
        return p * holes + h + 1

    for p in range(pigeons):
        cnf.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var(p1, h), -var(p2, h)])
    return cnf


class TestLuby:
    def test_sequence_prefix(self):
        assert [luby(i) for i in range(1, 16)] == \
            [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    def test_one_based(self):
        with pytest.raises(ValueError):
            luby(0)


class TestCraftedInstances:
    def test_empty_formula_is_sat(self):
        result = solve_cnf(Cnf(3))
        assert result.is_sat
        assert set(result.model) == {1, 2, 3}

    def test_single_unit(self):
        cnf = Cnf(1)
        cnf.add_unit(-1)
        result = solve_cnf(cnf)
        assert result.is_sat and result.model[1] is False

    def test_contradictory_units(self):
        cnf = Cnf(1)
        cnf.add_unit(1)
        cnf.add_unit(-1)
        assert solve_cnf(cnf).is_unsat

    def test_empty_clause_rejected_as_unsat(self):
        cnf = Cnf(1)
        cnf.clauses.append(())  # bypass validation deliberately
        assert solve_cnf(cnf).is_unsat

    def test_tautological_clause_ignored(self):
        cnf = Cnf(2)
        cnf.add_clause([1, -1])
        cnf.add_clause([2])
        result = solve_cnf(cnf)
        assert result.is_sat and result.model[2] is True

    def test_duplicate_literals_handled(self):
        cnf = Cnf(1)
        cnf.add_clause([1, 1, 1])
        assert solve_cnf(cnf).is_sat

    def test_chain_of_implications(self):
        n = 50
        cnf = Cnf(n)
        cnf.add_unit(1)
        for v in range(1, n):
            cnf.add_clause([-v, v + 1])
        result = solve_cnf(cnf)
        assert result.is_sat
        assert all(result.model[v] for v in range(1, n + 1))

    @pytest.mark.parametrize("holes", [2, 3, 4])
    def test_pigeonhole_unsat(self, holes):
        assert solve_cnf(pigeonhole(holes)).is_unsat

    def test_xor_chain_parity(self):
        # x1 xor x2 xor x3 = 1 via clauses; satisfiable.
        cnf = Cnf(3)
        cnf.add_clauses([(1, 2, 3), (1, -2, -3), (-1, 2, -3), (-1, -2, 3)])
        result = solve_cnf(cnf)
        assert result.is_sat
        parity = sum(result.model[v] for v in (1, 2, 3)) % 2
        assert parity == 1

    def test_conflict_limit_returns_unknown(self):
        result = solve_cnf(pigeonhole(6), conflict_limit=5)
        assert result.status == "unknown"


class TestRandomizedCrossCheck:
    @pytest.mark.parametrize("seed", range(20))
    def test_against_brute_force_and_dpll(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 9)
        cnf = Cnf(n)
        for _ in range(rng.randint(3, int(4.0 * n))):
            width = rng.randint(1, 3)
            clause = [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(width)]
            cnf.add_clause(clause)
        expected = brute_force_sat(cnf)
        result = solve_cnf(cnf)
        assert (result.status == "sat") == expected
        assert (dpll_solve(cnf) is not None) == expected
        if result.is_sat:
            assert evaluate_cnf(cnf, result.model)

    @pytest.mark.parametrize("seed", range(5))
    def test_hard_random_3sat_near_threshold(self, seed):
        rng = random.Random(1000 + seed)
        n = 30
        cnf = Cnf(n)
        for _ in range(int(4.26 * n)):
            clause = rng.sample(range(1, n + 1), 3)
            cnf.add_clause([v if rng.random() < 0.5 else -v for v in clause])
        result = solve_cnf(cnf)
        assert result.status in ("sat", "unsat")
        if result.is_sat:
            assert evaluate_cnf(cnf, result.model)
        # Cross-check the verdict with the reference DPLL solver.
        assert (dpll_solve(cnf) is not None) == result.is_sat


class TestStats:
    def test_stats_populated(self):
        result = solve_cnf(pigeonhole(4))
        assert result.conflicts > 0
        assert result.decisions > 0
        assert result.propagations > 0
        assert result.runtime >= 0


def assert_heap_valid(solver):
    """Each variable at most once, positions consistent, and every
    parent ahead of its children: higher activity, smaller index on ties."""
    heap, pos, act = solver._heap, solver._heap_pos, solver.activity
    assert len(heap) <= solver.nv
    assert len(set(heap)) == len(heap)
    for index, var in enumerate(heap):
        assert pos[var] == index
        if index:
            parent = heap[(index - 1) // 2]
            assert (-act[parent], parent) < (-act[var], var)
    assert sum(1 for p in pos[1:] if p >= 0) == len(heap)


def bump(solver, var, amount):
    """Raise an activity the way conflict analysis does."""
    solver.activity[var] += amount
    if solver._heap_pos[var] >= 0:
        solver._sift_up(solver._heap_pos[var])


class TestDecisionHeap:
    """The pure-Python heap's internals; ``TestNativeSearch`` checks the
    same behaviour on the kernel."""

    def test_heap_holds_each_variable_once_after_solves(self):
        solver = CdclSolver(pigeonhole(5), use_kernel=False)
        assert solver.solve().is_unsat
        assert_heap_valid(solver)
        rng = random.Random(7)
        solver = CdclSolver(Cnf(40), use_kernel=False)
        for _ in range(170):
            clause = rng.sample(range(1, 41), 3)
            solver.add_clause([v if rng.random() < 0.5 else -v
                               for v in clause])
        for _ in range(10):
            assumed = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, 41), 4)]
            solver.solve(assumptions=assumed)
            assert_heap_valid(solver)
            # Every variable not fixed at the root is a candidate again.
            free = [v for v in range(1, 41) if solver.value[2 * v] == 0]
            assert all(solver._heap_pos[v] >= 0 for v in free)

    def test_engine_session_heap_stays_bounded(self, monkeypatch):
        from repro.core.library import GateLibrary
        from repro.functions import get_spec
        from repro.synth.sat_engine import SatBaselineEngine

        monkeypatch.setattr(cdcl, "load_cdcl_kernel", lambda: (None, None))
        spec = get_spec("3_17")
        engine = SatBaselineEngine(spec, GateLibrary.mct(spec.n_lines))
        assert engine.begin_session()
        for depth in range(7):
            engine.decide(depth)
            assert_heap_valid(engine._session.solver)

    @pytest.mark.parametrize("seed", range(5))
    def test_pick_order_is_activity_then_index(self, seed):
        rng = random.Random(seed)
        n = 60
        solver = CdclSolver(Cnf(n), use_kernel=False)
        # Few distinct scores, so ties are common.
        for var in rng.sample(range(1, n + 1), n):
            bump(solver, var, rng.choice([0.0, 1.0, 2.0, 2.5, 4.0]))
        expected = sorted(range(1, n + 1),
                          key=lambda v: (-solver.activity[v], v))
        assert [solver._pick_branch_var() for _ in range(n)] == expected
        assert solver._pick_branch_var() == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_pick_order_under_bumps_and_reinsertion(self, seed):
        rng = random.Random(100 + seed)
        n = 50
        solver = CdclSolver(Cnf(n), use_kernel=False)
        popped = []
        for _ in range(200):
            for var in rng.sample(range(1, n + 1), 5):
                bump(solver, var, rng.choice([0.5, 1.0, 3.0]))
            if popped and rng.random() < 0.4:
                for var in popped:
                    solver._heap_insert(var)
                popped.clear()
            if solver._heap:
                best = min(solver._heap,
                           key=lambda v: (-solver.activity[v], v))
                popped.append(solver._heap_pop())
                assert popped[-1] == best
            assert_heap_valid(solver)

    def test_rescale_keeps_order(self):
        solver = CdclSolver(Cnf(6), use_kernel=False)
        for var, score in ((2, 1e-250), (5, 7e99), (6, 3e99)):
            bump(solver, var, score)
        # Variable 2 sits above variable 1 (heap index 1 over index 4)
        # until its score underflows to 0.0 when scaled; the tie must
        # then go to the smaller index.
        assert solver._heap == [5, 2, 6, 4, 1, 3]
        solver._rescale_activity()
        assert solver.activity[2] == solver.activity[1] == 0.0
        assert_heap_valid(solver)
        assert [solver._pick_branch_var() for _ in range(6)] == \
            [5, 6, 1, 2, 3, 4]

    def test_rescale_during_search(self):
        solver = CdclSolver(pigeonhole(5), use_kernel=False)
        solver.var_inc = 1e98  # the first bumps cross 1e100
        assert solver.solve().is_unsat
        assert solver.var_inc < 1e98
        assert_heap_valid(solver)


def search_figures(result):
    return (result.status, result.conflicts, result.decisions,
            result.propagations, result.restarts, result.learnt_clauses,
            result.model, result.core)


def solver_pair(cnf):
    return (CdclSolver(cnf, use_kernel=True),
            CdclSolver(cnf, use_kernel=False))


@pytest.mark.skipif(not kernel_available(),
                    reason="native kernel unavailable")
class TestNativeSearch:
    """The native search loop makes the pure-Python search exactly."""

    @pytest.mark.parametrize("use_kernel", [True, False])
    def test_ties_go_to_the_smaller_variable(self, use_kernel):
        # All activities tie at 0: decisions take x1, x2, ... in order,
        # each on its saved (negative) phase, until x_n is forced.
        n = 30
        cnf = Cnf(n)
        cnf.add_clause(list(range(1, n + 1)))
        result = CdclSolver(cnf, use_kernel=use_kernel).solve()
        assert result.decisions == n - 1
        assert [v for v in range(1, n + 1) if result.model[v]] == [n]

    @pytest.mark.parametrize("seed", range(40))
    def test_incremental_calls_match_python(self, seed):
        rng = random.Random(seed)
        n = rng.randint(5, 60)
        clauses = [[rng.choice([1, -1]) * rng.randint(1, n)
                    for _ in range(rng.randint(1, 4))]
                   for _ in range(int(rng.uniform(2, 5) * n))]
        native, pure = solver_pair(Cnf(n))
        half = len(clauses) // 2
        for clause in clauses[:half]:
            assert native.add_clause(clause) == pure.add_clause(clause)
        for round_ in range(6):
            assumed = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, n + 1),
                                           min(n, rng.randint(0, 6)))]
            assert search_figures(native.solve(assumptions=assumed)) \
                == search_figures(pure.solve(assumptions=assumed))
            for clause in clauses[half + 3 * round_:half + 3 * round_ + 3]:
                assert native.add_clause(clause) == pure.add_clause(clause)
        assert native.num_clauses == pure.num_clauses
        assert native.num_learnts == pure.num_learnts

    def test_rescale_matches_python(self):
        native, pure = solver_pair(pigeonhole(5))
        # The first bumps cross both rescale thresholds.
        native._native.var_inc = pure.var_inc = 1e98
        native._native.cla_inc = pure.cla_inc = 1e19
        assert search_figures(native.solve()) == search_figures(pure.solve())
        assert native._native.var_inc == pure.var_inc < 1e98
        assert native._native.cla_inc == pure.cla_inc < 1e19
        # Only learnt clauses are bumped: a problem clause never crosses
        # the threshold and rescales again on every later bump, which
        # would decay the increment to 0.
        assert pure.cla_inc > 0
        assert [c.activity for c in pure.clauses] == [0.0] * len(pure.clauses)
        state, ffi = native._native, native._ffi
        problem = [ffi.cast("double *", state.mem + state.clauses[i] + 2)[0]
                   for i in range(state.n_clauses)]
        assert problem == [0.0] * len(pure.clauses)

    def test_learnt_database_reduction_matches_python(self):
        native, pure = solver_pair(pigeonhole(7))
        result = native.solve()
        assert search_figures(result) == search_figures(pure.solve())
        # More clauses were learnt than survive: the reduction ran.
        assert native.num_learnts == pure.num_learnts < result.learnt_clauses

    def test_limits_and_ticks_match_python(self):
        ticks = {True: 0, False: 0}

        def tick_for(use_kernel):
            def tick():
                ticks[use_kernel] += 1
            return tick

        native, pure = solver_pair(pigeonhole(6))
        assert search_figures(native.solve(conflict_limit=300,
                                           tick=tick_for(True))) \
            == search_figures(pure.solve(conflict_limit=300,
                                         tick=tick_for(False)))
        assert ticks[True] == ticks[False] == 2  # start, conflict 256
        assert native.solve(conflict_limit=300).status == "unknown"
        assert native.solve(time_limit=-1.0).status == "unknown"

    def test_tick_may_abort_and_leaves_solver_usable(self):
        class Stop(Exception):
            pass

        calls = []

        def tick():
            calls.append(1)
            if len(calls) == 2:
                raise Stop

        native = CdclSolver(pigeonhole(6), use_kernel=True)
        with pytest.raises(Stop):
            native.solve(tick=tick)
        assert native.solve().is_unsat
