"""Unit tests for the LP layer: both backends, counters, edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.lp import (LinearProgramSolver, LPStats, default_stats,
                      make_solver, solve_simplex)


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
        scipy_solver = make_solver(backend="scipy")
        simplex_solver = make_solver(backend="simplex")
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
            res = make_solver(backend=backend).solve(
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
        s = make_solver(backend="scipy")
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


class TestLPStats:
    def test_merge(self):
        a, b = LPStats(), LPStats()
        a.record(purpose="p1")
        b.record(purpose="p1", feasible=False)
        b.record(purpose="p2", objective=False)
        a.merge(b)
        assert a.solved == 3
        assert a.infeasible == 1
        assert a.feasibility_checks == 1
        assert a.by_purpose() == {"p1": 2, "p2": 1}

    def test_reset(self):
        s = LPStats()
        s.record()
        s.reset()
        assert s.solved == 0
        assert s.by_purpose() == {}
