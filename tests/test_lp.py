"""Unit tests for the LP layer: both backends, counters, edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.errors import SolverError
from repro.faults import InjectedFault
from repro.lp import (LinearProgramSolver, LPResultCache, LPStats,
                      default_stats, solve_simplex)


class TestSimplexCore:
    def test_simple_bounded_minimum(self):
        # min x0 + x1 s.t. x0 >= 1, x1 >= 2 (via -x <= -bound).
        res = solve_simplex([1.0, 1.0],
                            a_ub=[[-1, 0], [0, -1]], b_ub=[-1, -2])
        assert res.is_optimal
        assert res.objective == pytest.approx(3.0)
        assert res.x == pytest.approx([1.0, 2.0])

    def test_infeasible(self):
        # x <= 0 and x >= 1 simultaneously.
        res = solve_simplex([1.0], a_ub=[[1], [-1]], b_ub=[0, -1])
        assert res.status == "infeasible"

    def test_unbounded(self):
        # min -x with x >= 0 only.
        res = solve_simplex([-1.0], a_ub=[[-1]], b_ub=[0])
        assert res.status == "unbounded"

    def test_bounds_handled(self):
        res = solve_simplex([-1.0, -1.0], a_ub=[[1, 1]], b_ub=[10],
                            bounds=[(0, 4), (0, 3)])
        assert res.is_optimal
        assert res.objective == pytest.approx(-7.0)

    def test_negative_lower_bounds(self):
        res = solve_simplex([1.0], bounds=[(-5, 5)])
        assert res.is_optimal
        assert res.x[0] == pytest.approx(-5.0)

    def test_free_variables_via_split(self):
        # min x s.t. x >= -3 expressed through constraints (x free).
        res = solve_simplex([1.0], a_ub=[[-1]], b_ub=[3])
        assert res.is_optimal
        assert res.x[0] == pytest.approx(-3.0)

    def test_degenerate_constraints(self):
        # Redundant duplicated rows should not break the pivot rules.
        res = solve_simplex([1.0, 0.0],
                            a_ub=[[-1, 0], [-1, 0], [0, 1], [0, 1]],
                            b_ub=[-1, -1, 5, 5])
        assert res.is_optimal
        assert res.x[0] == pytest.approx(1.0)


class TestBackendAgreement:
    """Both backends must agree on random feasible LPs."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_agreement(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 3, 8
        a = rng.normal(size=(m, n))
        # Make the region non-empty and bounded around a known point.
        x0 = rng.uniform(-1, 1, size=n)
        b = a @ x0 + rng.uniform(0.1, 2.0, size=m)
        box = [(-5.0, 5.0)] * n
        c = rng.normal(size=n)
        scipy_solver = LinearProgramSolver(backend="scipy")
        simplex_solver = LinearProgramSolver(backend="simplex")
        r1 = scipy_solver.solve(c, a, b, box)
        r2 = simplex_solver.solve(c, a, b, box)
        assert r1.status == r2.status == "optimal"
        assert r1.objective == pytest.approx(r2.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_infeasible_agreement(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 2
        direction = rng.normal(size=n)
        # direction @ x <= -1 and -direction @ x <= -1 cannot both hold.
        a = np.vstack([direction, -direction])
        b = np.array([-1.0, -1.0])
        for backend in ("scipy", "simplex"):
            res = LinearProgramSolver(backend=backend).solve(
                np.zeros(n), a, b, [(-10, 10)] * n)
            assert res.is_infeasible


class TestBasisSolve:
    """The fast basis-solve substrate mirrors np.linalg.solve's contract."""

    def test_matches_wrapper_bitwise(self):
        from repro.lp.simplex import _basis_solve
        rng = np.random.default_rng(3)
        a = rng.normal(size=(9, 9))
        b = rng.normal(size=9)
        assert (_basis_solve(a, b) == np.linalg.solve(a, b)).all()

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_singular_raises_linalgerror(self, action):
        # Under warnings-promoted-to-errors (common downstream) the
        # gufunc's invalid-value warning must still surface as the
        # wrapper's LinAlgError so the hybrid scipy fallback engages.
        import warnings
        from repro.lp.simplex import _basis_solve
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(np.linalg.LinAlgError):
                _basis_solve(np.zeros((2, 2)), np.ones(2))

    def test_singular_basis_leaks_no_warning(self):
        # A Chebyshev LP of a 2-D region (from a 3-table chain run) whose
        # phase 2 meets a singular basis: the NaN sentinel still becomes
        # a SolverError, without an invalid-value RuntimeWarning.
        import warnings
        a = [[1.0, -0.0, 1.0],
             [-0.7071067811865476, 0.7071067811865476, 1.0],
             [-0.0, -1.0, 1.0],
             [-0.9999997978145009, 0.0006359016885235226, 1.0],
             [0.9999993868158983, -0.0011074149301402562, 1.0],
             [-0.9999996869868489, 0.0007912181773892717, 1.0],
             [0.9999990507003528, -0.0013778963651986862, 1.0],
             [0.9999991945925826, -0.0012691785478036275, 1.0],
             [-1.0, 0.0, 1.0]]
        b = [1.0, 0.0, -0.0, -0.0024745708615933402, 0.053927785346980166,
             -0.002448859400154162, 0.05388299151641888,
             0.025313050029402977, -1.0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SolverError, match="singular"):
                solve_simplex([0.0, 0.0, -1.0], a, b)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]


class TestLinearProgramSolver:
    def test_counts_recorded(self):
        stats = LPStats()
        s = LinearProgramSolver(stats=stats)
        s.solve([1.0], [[-1.0]], [0.0], [(None, None)], purpose="unit")
        assert stats.solved == 1
        assert stats.by_purpose() == {"unit": 1}

    def test_feasibility_counted_separately(self):
        stats = LPStats()
        s = LinearProgramSolver(stats=stats)
        s.solve(np.zeros(2), [[1.0, 0.0]], [1.0])
        assert stats.feasibility_checks == 1
        assert stats.optimizations == 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            LinearProgramSolver(backend="cplex")

    def test_default_stats_shared(self):
        s = LinearProgramSolver()
        assert s.stats is default_stats()

    def test_inconsistent_shapes_raise(self):
        s = LinearProgramSolver(backend="scipy")
        with pytest.raises(SolverError):
            s.solve([1.0, 1.0], [[1.0, 0.0]], [1.0, 2.0])

    def test_hybrid_backend_solves(self):
        s = LinearProgramSolver(backend="hybrid")
        res = s.solve([1.0], [[-1.0]], [-2.0])
        assert res.is_optimal
        assert res.x[0] == pytest.approx(2.0)


class TestSolveMany:
    """The batched entry point: in-batch dedupe and purpose attribution."""

    @staticmethod
    def _problems(count: int, seed: int = 7) -> list[tuple]:
        rng = np.random.default_rng(seed)
        problems = []
        for __ in range(count):
            a = rng.normal(size=(10, 3))
            anchor = rng.uniform(-1, 1, size=3)
            b = a @ anchor + rng.uniform(0.1, 2.0, size=10)
            problems.append((rng.normal(size=3), a, b, None))
        return problems

    def test_in_batch_duplicates_stay_cache_hits(self):
        problems = self._problems(8)
        solver = LinearProgramSolver(stats=LPStats(), cache_size=64)
        results = solver.solve_many(problems + problems[:3], purpose="unit")
        assert solver.stats.solved == len(problems)
        assert solver.stats.cache_hits == 3
        for original, duplicate in zip(results[:3], results[-3:]):
            assert original is duplicate

    def test_purpose_count_mismatch_rejected(self):
        solver = LinearProgramSolver(stats=LPStats())
        with pytest.raises(SolverError):
            solver.solve_many(self._problems(4), purpose=["only-one"])

    def test_per_problem_purposes_attributed(self):
        problems = self._problems(10)
        purposes = ["alpha" if i % 2 == 0 else "beta"
                    for i in range(len(problems))]
        solver = LinearProgramSolver(stats=LPStats())
        solver.solve_many(problems, purpose=purposes)
        assert solver.stats.by_purpose() == {"alpha": 5, "beta": 5}
        seconds = solver.stats.seconds_by_purpose()
        assert seconds["alpha"] > 0.0
        assert seconds["beta"] > 0.0
        assert solver.stats.seconds == pytest.approx(
            seconds["alpha"] + seconds["beta"])


class TestOneRequestPath:
    """``solve_many`` is a loop of ``solve``: every problem is one
    request, down to the memo and the failpoint."""

    def test_counts_like_a_loop_of_solve_when_the_memo_evicts(self):
        # A 1-entry memo holding x: the first x hits, y evicts x, and
        # the second x is solved again.
        x, y = TestSolveMany._problems(2)
        counts = []
        for batched in (True, False):
            solver = LinearProgramSolver(stats=LPStats(),
                                         cache=LPResultCache(maxsize=1))
            solver.solve(*x)
            solver.stats.reset()
            if batched:
                solver.solve_many([x, y, x])
            else:
                for problem in (x, y, x):
                    solver.solve(*problem)
            counts.append((solver.stats.solved, solver.stats.cache_hits))
        assert counts == [(2, 1), (2, 1)]

    def test_failpoint_fires_on_solve_many_requests(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        faults.install("lp.solver.fail:*")
        try:
            with pytest.raises(InjectedFault):
                LinearProgramSolver(stats=LPStats()).solve_many(
                    TestSolveMany._problems(1))
        finally:
            faults.reset()


class TestLPStats:
    def test_lowdim_deferred_reset(self):
        a = LPStats(lowdim_deferred=5)
        a.reset()
        assert a.lowdim_deferred == 0

    def test_record_counts(self):
        s = LPStats()
        s.record(purpose="p1")
        s.record(purpose="p1", feasible=False)
        s.record(purpose="p2", objective=False)
        assert s.solved == 3
        assert s.infeasible == 1
        assert s.feasibility_checks == 1
        assert s.by_purpose() == {"p1": 2, "p2": 1}

    def test_reset(self):
        s = LPStats()
        s.record()
        s.reset()
        assert s.solved == 0
        assert s.by_purpose() == {}


class TestKnownDefects:
    """Verdicts of the simplex that are known to be wrong, pinned so a
    fix shows up as an XPASS (and must then drop the marker)."""

    # The Chebyshev LP of a 2-D region from pool entry 3:chain:2:1:0 of
    # the end-to-end benchmark.  Its emptiness LP is infeasible and
    # HiGHS finds a radius of -0.00276, but after phase 1 both halves of
    # a split free variable sit in the basis near 5e5, phase 2 takes
    # their common ray (reduced cost -3.7e-9, below the -1e-9 threshold)
    # as improving, and the ratio test finds no leaving row.
    A = [[0.0, 1.0, 1.0], [0.7071067811865476, -0.7071067811865476, 1.0],
         [-1.0, 0.0, 1.0], [0.9930712335026143, -0.11751393615055374, 1.0],
         [0.9914982623213978, -0.13011992857994015, 1.0],
         [0.9999711114114211, -0.007601075095490677, 1.0],
         [0.9959038685064533, -0.09041838692368448, 1.0],
         [-0.9999999810229016, -0.0001948183683919424, 1.0],
         [-0.9999999325974106, -0.00036715824161329136, 1.0]]
    B = [1.0, -0.0, 0.0, 0.05783622803950548, 0.05576720945576169,
         -0.0033102391923491834, -0.08521193753999112,
         -0.0009379943371986845, -0.010191762432013663]
    HIGHS_OBJECTIVE = 0.0027558028525045

    def test_scipy_reference(self):
        res = LinearProgramSolver(backend="scipy").solve(
            [0.0, 0.0, -1.0], self.A, self.B)
        assert res.is_optimal
        assert res.objective == pytest.approx(self.HIGHS_OBJECTIVE,
                                              abs=1e-12)

    # The same defect on a zero-width interval stated twice, x >= -t and
    # x <= -t (found by tests/test_lp_lowdim.py's sweep; it depends on
    # the rounding of t and c).  Geometry never produces it, since
    # polytopes drop duplicate rows.
    T, C = 0.5988386293265975, [-0.4207195509293158]
    A1 = [[-1.0], [-1.0], [1.0], [1.0]]
    B1 = [T, T, -T, -T]
    HIGHS_OBJECTIVE_1 = 0.2519431192094131  # x = -t

    def test_closed_form_answers_one_variable_case(self):
        res = LinearProgramSolver(backend="hybrid").solve(
            self.C, self.A1, self.B1)
        assert res.objective == pytest.approx(self.HIGHS_OBJECTIVE_1,
                                              abs=1e-15)

    @pytest.mark.xfail(strict=True, reason="the simplex reports a false "
                       "'unbounded' on a split free-variable ray")
    def test_split_ray_false_unbounded_one_variable(self):
        res = solve_simplex(self.C, self.A1, self.B1)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(self.HIGHS_OBJECTIVE_1,
                                              abs=1e-12)

    # A 2-variable emptiness LP of pool entry 3:star:2:1:11.  The simplex
    # calls it unbounded, which no LP with a zero objective can be; the
    # emptiness decision survives (unbounded is not infeasible), and the
    # closed form, like HiGHS, says optimal.
    A0 = [[0.0, 1.0], [0.7071067811865476, -0.7071067811865476],
          [-1.0, 0.0], [0.9552872776613428, 0.29567924705393256],
          [0.8928499676535573, -0.45035423308884476]]
    B0 = [1.0, -0.0, 0.0, 0.29550906215289996, -0.450095021489277]

    def test_closed_form_answers_zero_objective_case(self):
        for backend in ("hybrid", "scipy"):
            res = LinearProgramSolver(backend=backend).solve(
                [0.0, 0.0], self.A0, self.B0)
            assert res.is_optimal, backend

    @pytest.mark.xfail(strict=True, reason="the simplex reports a false "
                       "'unbounded' for a zero objective")
    def test_false_unbounded_zero_objective(self):
        assert solve_simplex([0.0, 0.0], self.A0, self.B0).is_optimal

    @pytest.mark.xfail(strict=True, reason="the simplex reports a false "
                       "'unbounded' on a split free-variable ray")
    def test_split_ray_false_unbounded(self):
        results = [solve_simplex([0.0, 0.0, -1.0], self.A, self.B),
                   LinearProgramSolver(backend="hybrid").solve(
                       [0.0, 0.0, -1.0], self.A, self.B)]
        for res in results:
            assert res.status == "optimal"
            assert res.objective == pytest.approx(self.HIGHS_OBJECTIVE,
                                                  abs=1e-9)
