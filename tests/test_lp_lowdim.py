"""The closed-form path for LPs with at most two free variables.

``repro.lp.lowdim`` answers these LPs on the default ``hybrid`` backend
before the simplex runs.  The pure ``simplex`` and ``scipy`` backends
are its oracles: every answer must carry the simplex's status and an
objective within 1e-9 of both, and guard-band inputs must be deferred
(and counted) rather than guessed.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import get_scenario
from repro.core import encode_result
from repro.core import pwl_backend
from repro.errors import SolverError
from repro.geometry import INTERIOR_EPS, ConvexPolytope
from repro.lp import LinearProgramSolver, LPStats, make_solver, solve_simplex
from repro.lp.lowdim import GUARD_BAND, solve_lowdim
from repro.query import QueryGenerator


def _unit(rows):
    rows = np.asarray(rows, dtype=float)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _family(rng, kind: str, n: int):
    """One ``(c, A, b)`` LP of a sweep family."""
    m = int(rng.integers(1, 12))
    c = rng.normal(size=n)
    if kind == "random":
        a = rng.normal(size=(m, n))
        b = rng.uniform(-1.0, 1.0, size=m)
    elif kind == "unit":
        a = _unit(rng.normal(size=(m, n)))
        b = rng.uniform(-1.0, 1.0, size=m)
    elif kind == "bounded":
        # A non-empty region around x0; the box keeps the optimum finite.
        a = np.vstack([rng.normal(size=(m, n)), np.eye(n), -np.eye(n)])
        x0 = rng.uniform(-1.0, 1.0, size=n)
        b = a @ x0 + rng.uniform(0.0, 1.0, size=a.shape[0])
        b[m:] = 2.0
    elif kind == "touching":
        # Zero-width slabs: a row and its negation through one point.
        a = _unit(rng.normal(size=(m, n)))
        x0 = rng.uniform(-1.0, 1.0, size=n)
        a = np.vstack([a, -a])
        b = np.concatenate([a[:m] @ x0, -(a[:m] @ x0)])
    elif kind == "duplicates":
        # Exact and scaled duplicates, shifted parallel copies, and
        # opposite copies that close each row into a slab of random
        # (possibly negative) width.
        a = _unit(rng.normal(size=(m, n)))
        b = rng.uniform(-1.0, 1.0, size=m)
        a = np.vstack([a, a, 2.0 * a, a, -a])
        b = np.concatenate([b, b, 2.0 * b, b + rng.uniform(0.0, 0.5, m),
                            -b + rng.uniform(-0.1, 0.5, m)])
    elif kind == "zero_row":
        a = np.vstack([_unit(rng.normal(size=(m, n))), np.zeros((1, n))])
        b = np.concatenate([rng.uniform(0.0, 1.0, size=m),
                            [rng.choice([0.5, 0.0, -0.5])]])
    else:  # "zero_objective"
        a = _unit(rng.normal(size=(m, n)))
        b = rng.uniform(-1.0, 1.0, size=m)
        c = np.zeros(n)
    return c, a, b


FAMILIES = ("random", "unit", "bounded", "touching", "duplicates",
            "zero_row", "zero_objective")


class TestOracleSweep:
    """Seeded sweep: the new path against both pure backends.

    Where the simplex reports a false "unbounded" on a polygon shrunk to
    a point by repeated zero-width slabs (its split-ray defect, see
    ``tests/test_lp.py::TestKnownDefects``), the new path must agree
    with scipy instead; that happens only in the degenerate families.
    """

    DEGENERATE = ("touching", "duplicates")

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_matches_simplex_and_scipy(self, kind, n):
        rng = np.random.default_rng(
            [FAMILIES.index(kind), n])  # one stream per family
        simplex = make_solver(backend="simplex")
        scipy = make_solver(backend="scipy")
        stats = LPStats()
        hybrid = LinearProgramSolver(stats=stats, backend="hybrid")
        answered = defects = 0
        count = 60
        for __ in range(count):
            c, a, b = _family(rng, kind, n)
            direct = solve_lowdim(c, a, b)
            result = hybrid.solve(c, a, b)
            reference = simplex.solve(c, a, b)
            if direct is None:  # deferred: the simplex answers
                assert result.status == reference.status
                continue
            answered += 1
            status, x, objective = direct
            assert (result.status, result.objective) == (status, objective)
            other = scipy.solve(c, a, b)
            assert status == other.status
            if reference.status == "unbounded" and status == "optimal":
                defects += 1
            else:
                assert status == reference.status
            if status == "optimal":
                assert objective == pytest.approx(other.objective,
                                                  abs=1e-9)
                if reference.is_optimal:
                    assert objective == pytest.approx(reference.objective,
                                                      abs=1e-9)
                assert objective == pytest.approx(float(c @ x), abs=1e-12)
                assert np.all(a @ x <= b + 1e-9)
        # Every LP counts as solved, answered in closed form or not.
        assert stats.solved == count
        assert stats.lowdim_deferred == count - answered
        assert answered >= count // 2, f"only {answered} answered"
        if kind not in self.DEGENERATE:
            assert defects == 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_gaps_around_the_guard_band(self, n):
        """Slabs of random direction inside a box, with a width of minus
        ``gap``: feasible up to a zero gap, deferred inside the guard
        band, infeasible beyond it."""
        rng = np.random.default_rng([len(FAMILIES), n])
        # In 2-D both rows of the slab are relaxed, so the band doubles.
        band = GUARD_BAND if n == 1 else 2.0 * GUARD_BAND
        gaps = [-1e-3, -1e-9, 0.0, 1e-9, 0.3 * band, 0.9 * band,
                1.5 * band, 1e-3] * 4
        stats = LPStats()
        hybrid = LinearProgramSolver(stats=stats, backend="hybrid")
        simplex = make_solver(backend="simplex")
        for gap in gaps:
            normal = _unit(rng.normal(size=(1, n)))[0]
            t = rng.uniform(-0.5, 0.5)
            a = np.vstack([normal, -normal, np.eye(n), -np.eye(n)])
            b = np.concatenate([[t, -(t + gap)], np.ones(2 * n)])
            expected = ("optimal" if gap <= 0.0
                        else None if gap <= band else "infeasible")
            direct = solve_lowdim(np.zeros(n), a, b)
            assert (None if direct is None else direct[0]) == expected, gap
            result = hybrid.solve(np.zeros(n), a, b)
            if expected is None:
                assert result.status == simplex.solve(np.zeros(n), a,
                                                      b).status
            else:
                assert result.status == expected
        in_band = sum(0.0 < gap <= band for gap in gaps)
        assert stats.lowdim_deferred == in_band == 12


class TestGuardBand:
    """Verdicts near the simplex's infeasibility tolerance."""

    @staticmethod
    def _hybrid():
        stats = LPStats()
        return LinearProgramSolver(stats=stats, backend="hybrid"), stats

    @pytest.mark.parametrize("gap,verdict", [
        (0.0, "optimal"),          # touching intervals
        (-1e-3, "optimal"),
        (0.5 * GUARD_BAND, None),  # inside the band: deferred
        (0.9 * GUARD_BAND, None),
        (2.0 * GUARD_BAND, "infeasible"),
        (1e-3, "infeasible"),
    ])
    def test_one_dimensional_gap(self, gap, verdict):
        a = np.array([[1.0], [-1.0]])
        b = np.array([0.3, -(0.3 + gap)])  # x <= 0.3, x >= 0.3 + gap
        direct = solve_lowdim(np.zeros(1), a, b)
        assert (None if direct is None else direct[0]) == verdict
        solver, stats = self._hybrid()
        result = solver.solve(np.zeros(1), a, b)
        assert result.status == solve_simplex(np.zeros(1), a, b).status
        assert stats.lowdim_deferred == (verdict is None)

    @pytest.mark.parametrize("gap,verdict", [
        (0.0, "optimal"),
        (0.5 * GUARD_BAND, None),
        (1e-3, "infeasible"),
    ])
    def test_two_dimensional_gap(self, gap, verdict):
        # Triangle x >= 0, y >= 0, x + y <= 1, cut by x + y >= 1 + gap.
        a = _unit([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
        b = np.array([0.0, 0.0, 1.0 / np.sqrt(2.0),
                      -(1.0 + gap) / np.sqrt(2.0)])
        direct = solve_lowdim(np.zeros(2), a, b)
        assert (None if direct is None else direct[0]) == verdict
        solver, stats = self._hybrid()
        result = solver.solve(np.zeros(2), a, b)
        assert result.status == solve_simplex(np.zeros(2), a, b).status
        assert stats.lowdim_deferred == (verdict is None)

    @pytest.mark.parametrize("rhs,verdict", [
        (0.0, "optimal"), (-0.5 * GUARD_BAND, None), (-1.0, "infeasible")])
    def test_zero_row(self, rhs, verdict):
        for n in (1, 2):
            a = np.vstack([np.eye(n), np.zeros((1, n))])
            b = np.array([1.0] * n + [rhs])
            direct = solve_lowdim(np.zeros(n), a, b)
            assert (None if direct is None else direct[0]) == verdict

    @pytest.mark.parametrize("n", [1, 2])
    def test_unbounded_objective_deferred(self, n):
        a = -np.eye(n)  # x >= 0, minimize -sum(x)
        c = -np.ones(n)
        assert solve_lowdim(c, a, np.zeros(n)) is None
        solver, stats = self._hybrid()
        assert solver.solve(c, a, np.zeros(n)).status == "unbounded"
        assert stats.lowdim_deferred == 1

    def test_non_finite_input_deferred(self):
        a = np.array([[1.0, 0.0], [0.0, np.nan]])
        assert solve_lowdim(np.zeros(2), a, np.ones(2)) is None

    def test_finite_bounds_go_to_the_simplex(self):
        solver, stats = self._hybrid()
        result = solver.solve([1.0], [[1.0]], [1.0], [(0.5, None)])
        assert result.is_optimal and result.x[0] == pytest.approx(0.5)
        assert stats.lowdim_deferred == 0  # never offered to the path


class TestChebyshevOneDimensional:
    """The Chebyshev LP of an interval has a unique optimum."""

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (0.25, 0.5),
                                       (0.3, 0.3), (0.7, 0.2)])
    def test_midpoint_and_half_length(self, lo, hi):
        if lo <= hi:
            region = ConvexPolytope.box([lo], [hi])
        else:  # empty: the upper bound lies below the lower one
            region = ConvexPolytope.from_arrays([[1.0], [-1.0]], [hi, -lo])
        center, radius = region.chebyshev(
            LinearProgramSolver(stats=LPStats()))
        assert radius == pytest.approx((hi - lo) / 2, abs=1e-15)
        assert center[0] == pytest.approx((lo + hi) / 2, abs=1e-15)
        reference = make_solver(backend="simplex").solve(
            [0.0, -1.0], np.hstack([region._a, np.ones((2, 1))]),
            region._b)
        assert reference.x == pytest.approx([center[0], radius], abs=1e-12)


def _record_small_lps(monkeypatch) -> list[tuple]:
    """Record every solved LP with at most two variables."""
    records = []
    original = LinearProgramSolver._solve_prepared

    def recording(self, c, a_ub, b_ub, bounds, *, purpose):
        result = original(self, c, a_ub, b_ub, bounds, purpose=purpose)
        if c.shape[0] <= 2:
            records.append((c, a_ub, b_ub, purpose, result))
        return result

    monkeypatch.setattr(LinearProgramSolver, "_solve_prepared", recording)
    return records


class TestReplay:
    """Every small LP of real optimizations, re-solved by the simplex."""

    @pytest.mark.parametrize("seed,num_tables,shape,num_params", [
        (0, 4, "chain", 1),
        (1, 4, "star", 1),
        (2, 3, "chain", 2),
    ])
    def test_optimizer_lps_match_simplex(self, monkeypatch, seed,
                                         num_tables, shape, num_params):
        records = _record_small_lps(monkeypatch)
        query = QueryGenerator(seed=seed).generate(num_tables, shape,
                                                   num_params)
        result = get_scenario("cloud").optimize(
            query, resolution=2 if num_params == 1 else 1)
        assert len(records) > 100
        deferred = result.stats.lp_stats.lowdim_deferred
        assert deferred <= len(records) // 100  # at most 1% deferred
        for c, a, b, purpose, answer in records:
            try:
                reference = solve_simplex(c, a, b)
            except SolverError:  # the hybrid would have asked scipy
                reference = make_solver(backend="scipy").solve(c, a, b)
            assert answer.status == reference.status, purpose
            if answer.is_optimal:
                assert answer.objective == pytest.approx(
                    reference.objective, abs=1e-9)
                if purpose == "chebyshev":
                    assert ((answer.x[-1] > INTERIOR_EPS)
                            == (reference.x[-1] > INTERIOR_EPS))


class TestFullRunEquivalence:
    """Whole optimizations: default backend vs the pure simplex."""

    @pytest.mark.parametrize("scenario,seed,num_tables,shape,num_params", [
        ("cloud", 0, 4, "chain", 1),
        ("cloud", 3, 3, "star", 2),
        ("approx", 3, 4, "chain", 1),
        ("approx", 0, 4, "chain", 2),
    ])
    def test_plan_sets_and_counters_identical(self, monkeypatch, scenario,
                                              seed, num_tables, shape,
                                              num_params):
        query = QueryGenerator(seed=seed).generate(num_tables, shape,
                                                   num_params)
        resolution = 2 if num_params == 1 else 1
        default = get_scenario(scenario).optimize(query,
                                                  resolution=resolution)

        def pure_simplex(*args, **kwargs):
            return LinearProgramSolver(*args, backend="simplex", **kwargs)

        monkeypatch.setattr(pwl_backend, "LinearProgramSolver", pure_simplex)
        oracle = get_scenario(scenario).optimize(query,
                                                 resolution=resolution)
        assert (json.dumps(encode_result(default), sort_keys=True)
                == json.dumps(encode_result(oracle), sort_keys=True))
        ours, theirs = default.stats.lp_stats, oracle.stats.lp_stats
        for field in ("solved", "infeasible", "unbounded", "cache_hits"):
            assert getattr(ours, field) == getattr(theirs, field), field
        assert ours.by_purpose() == theirs.by_purpose()
        assert theirs.lowdim_deferred == 0
