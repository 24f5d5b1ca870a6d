"""Equivalence: batched/vectorized geometry kernels == scalar fallback.

The vectorized kernels of this library — batched emptiness LPs behind
region differences (:func:`repro.geometry.subtract_polytope_many`), the
NumPy general (unaligned) dominance path and the NumPy PWL ``add`` general
path — all promise *bit-identical* results to the scalar per-piece-pair
loops they replace.  ``REPRO_SCALAR_KERNELS=1`` selects the scalar loops;
these property-style tests run randomized inputs (random queries under
both built-in scenarios, random unaligned PWL functions, random polytope
differences) through both sides of the switch and compare exact float
representations.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import PWLRRPAOptions, encode_result
from repro.core.serialize import _encode_polytope
from repro.cost import MultiObjectivePWL, PiecewiseLinearFunction
from repro.geometry import (ConvexPolytope, LinearConstraint,
                            subtract_polytope, subtract_polytope_many)
from repro.lp import LinearProgramSolver, LPStats
from repro.query import QueryGenerator
from repro.service.registry import get_scenario


def _polys_key(polys):
    """Exact (bitwise) representation of a polytope list."""
    return json.dumps([_encode_polytope(p) for p in polys], sort_keys=True)


def _pwl_key(function: PiecewiseLinearFunction) -> str:
    """Exact representation of a PWL function (weights, bases, regions)."""
    return json.dumps(
        [{"w": [float(v).hex() for v in p.w], "b": float(p.b).hex(),
          "region": _encode_polytope(p.region)} for p in function.pieces],
        sort_keys=True)


def _random_unaligned_pwl(rng, space: ConvexPolytope, pieces: int
                          ) -> PiecewiseLinearFunction:
    """A PWL function on a random (unaligned) interval partition of x0."""
    cuts = sorted(rng.uniform(0.1, 0.9, size=pieces - 1))
    bounds = [0.0] + list(cuts) + [1.0]
    regions = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        region = space.with_constraint(
            LinearConstraint.make([1.0] + [0.0] * (space.dim - 1), hi))
        regions.append(region.with_constraint(
            LinearConstraint.make([-1.0] + [0.0] * (space.dim - 1), -lo)))
    return PiecewiseLinearFunction.from_values_on_partition(
        regions, [rng.uniform(-1, 1, space.dim) for __ in regions],
        [float(b) for b in rng.uniform(0, 3, len(regions))])


def _solver() -> LinearProgramSolver:
    return LinearProgramSolver(stats=LPStats())


class TestFullRunEquivalence:
    """Whole optimizations under both scenarios, both kernel modes."""

    @pytest.mark.parametrize("scenario,seed,num_tables,shape", [
        ("cloud", 0, 4, "chain"),
        ("cloud", 1, 3, "star"),
        ("cloud", 2, 3, "cycle"),
        ("approx", 3, 4, "chain"),
        ("approx", 4, 3, "clique"),
    ])
    def test_plan_sets_bit_identical(self, monkeypatch, scenario, seed,
                                     num_tables, shape):
        query = QueryGenerator(seed=seed).generate(num_tables, shape, 1)
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "1")
        scalar = get_scenario(scenario).optimize(query)
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "")
        batched = get_scenario(scenario).optimize(query)
        assert (json.dumps(encode_result(batched), sort_keys=True)
                == json.dumps(encode_result(scalar), sort_keys=True))
        # Pruning decisions match one for one, not just final plan sets.
        for counter in ("plans_created", "plans_inserted",
                        "plans_discarded_new", "plans_displaced_old"):
            assert (getattr(batched.stats, counter)
                    == getattr(scalar.stats, counter)), counter

    @pytest.mark.parametrize("scenario,seed,shape", [
        ("cloud", 0, "chain"),
        ("cloud", 7, "star"),
        ("approx", 1, "chain"),
    ])
    def test_two_params_across_memo_sizes(self, monkeypatch, scenario,
                                          seed, shape):
        """2-parameter runs at the default memo and at one small enough
        to evict: plan sets and pruning counters match the scalar
        oracle, and the LP requests (solved + memo hits) do not depend
        on what the memo evicted."""
        query = QueryGenerator(seed=seed).generate(3, shape, 2)
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "1")
        scalar = get_scenario(scenario).optimize(query, resolution=1)
        scalar_doc = json.dumps(encode_result(scalar), sort_keys=True)
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "")
        requests = set()
        for cache_size in (PWLRRPAOptions().lp_cache_size, 32):
            batched = get_scenario(scenario).optimize(
                query, resolution=1,
                options=PWLRRPAOptions(lp_cache_size=cache_size))
            assert json.dumps(encode_result(batched),
                              sort_keys=True) == scalar_doc
            for counter in ("plans_created", "plans_inserted",
                            "plans_discarded_new", "plans_displaced_old",
                            "pruning_comparisons"):
                assert (getattr(batched.stats, counter)
                        == getattr(scalar.stats, counter)), counter
            requests.add(batched.stats.lps_solved
                         + batched.stats.lp_stats.cache_hits)
        assert len(requests) == 1


class TestUnalignedKernelEquivalence:
    """The NumPy general dominance / add paths vs. the scalar loops."""

    @pytest.mark.parametrize("seed", range(6))
    def test_general_dominance_identical(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        space = ConvexPolytope.unit_box(2)
        one = MultiObjectivePWL({
            "time": _random_unaligned_pwl(rng, space, 3),
            "fees": _random_unaligned_pwl(rng, space, 2)})
        two = MultiObjectivePWL({
            "time": _random_unaligned_pwl(rng, space, 2),
            "fees": _random_unaligned_pwl(rng, space, 3)})
        relax = float(rng.choice([0.0, 0.2]))
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "1")
        scalar = one.dominance_polytopes(two, _solver(), relax=relax)
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "")
        batched = one.dominance_polytopes(two, _solver(), relax=relax)
        assert _polys_key(batched) == _polys_key(scalar)

    @pytest.mark.parametrize("seed", range(6))
    def test_general_add_identical(self, monkeypatch, seed):
        rng = np.random.default_rng(100 + seed)
        space = ConvexPolytope.unit_box(2)
        one = _random_unaligned_pwl(rng, space, 3)
        two = _random_unaligned_pwl(rng, space, 3)
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "1")
        scalar = one.add(two, _solver())
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "")
        batched = one.add(two, _solver())
        assert _pwl_key(batched) == _pwl_key(scalar)


class TestBoundsAndExtremumEquivalence:
    """Batched bounds_on / maximum / minimum vs. the scalar loops."""

    @pytest.mark.parametrize("seed", range(4))
    def test_bounds_on_identical(self, monkeypatch, seed):
        rng = np.random.default_rng(300 + seed)
        space = ConvexPolytope.unit_box(2)
        function = _random_unaligned_pwl(rng, space, 3)
        lo = rng.uniform(0.0, 0.4, 2)
        region = ConvexPolytope.box(lo, lo + rng.uniform(0.3, 0.5, 2))
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "1")
        scalar = function.bounds_on(region, _solver())
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "")
        batched = function.bounds_on(region, _solver())
        assert (float(batched[0]).hex(), float(batched[1]).hex()) == (
            float(scalar[0]).hex(), float(scalar[1]).hex())

    def test_bounds_on_raises_off_domain(self, monkeypatch):
        rng = np.random.default_rng(42)
        space = ConvexPolytope.unit_box(2)
        function = _random_unaligned_pwl(rng, space, 2)
        outside = ConvexPolytope.box([2.0, 2.0], [3.0, 3.0])
        from repro.errors import EmptyRegionError
        for env in ("1", ""):
            monkeypatch.setenv("REPRO_SCALAR_KERNELS", env)
            with pytest.raises(EmptyRegionError):
                function.bounds_on(outside, _solver())

    def test_bounds_on_raises_when_unbounded(self, monkeypatch):
        """Non-empty overlaps whose min/max LPs are all unbounded must
        raise rather than return the unusable (inf, -inf) pair."""
        from repro.errors import EmptyRegionError
        universe = ConvexPolytope.universe(2)
        function = PiecewiseLinearFunction.affine(universe, [1.0, 0.0],
                                                  0.0)
        for env in ("1", ""):
            monkeypatch.setenv("REPRO_SCALAR_KERNELS", env)
            with pytest.raises(EmptyRegionError, match="bounded"):
                function.bounds_on(universe, _solver())

    @pytest.mark.parametrize("seed,take_max", [
        (0, True), (1, True), (2, False), (3, False)])
    def test_extremum_identical(self, monkeypatch, seed, take_max):
        """The crossing-split general path (unaligned operands) batches
        its emptiness LPs; piece lists must match bit for bit."""
        rng = np.random.default_rng(400 + seed)
        space = ConvexPolytope.unit_box(2)
        one = _random_unaligned_pwl(rng, space, 3)
        two = _random_unaligned_pwl(rng, space, 2)
        combine = (PiecewiseLinearFunction.maximum if take_max
                   else PiecewiseLinearFunction.minimum)
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "1")
        scalar = combine(one, two, _solver())
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "")
        batched = combine(one, two, _solver())
        assert _pwl_key(batched) == _pwl_key(scalar)
        # Spot-check values at sample points too.
        for x in ([0.15, 0.4], [0.55, 0.8], [0.9, 0.1]):
            assert batched.evaluate(x) == scalar.evaluate(x)


class TestBatchedDifferenceEquivalence:
    """subtract_polytope_many vs. per-base subtract_polytope."""

    @pytest.mark.parametrize("seed", range(4))
    def test_subtraction_identical(self, monkeypatch, seed):
        rng = np.random.default_rng(200 + seed)
        bases = []
        for __ in range(4):
            lo = rng.uniform(0.0, 0.4, 2)
            hi = lo + rng.uniform(0.3, 0.6, 2)
            bases.append(ConvexPolytope.box(lo, np.minimum(hi, 1.0)))
        cut_lo = rng.uniform(0.1, 0.5, 2)
        cut = ConvexPolytope.box(cut_lo, cut_lo + 0.35)
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "")
        batched = subtract_polytope_many(
            [ConvexPolytope.from_arrays(b._a, b._b) for b in bases],
            cut, _solver())
        scalar = [subtract_polytope(
            ConvexPolytope.from_arrays(b._a, b._b), cut, _solver())
            for b in bases]
        assert len(batched) == len(scalar)
        for got, expected in zip(batched, scalar):
            assert _polys_key(got) == _polys_key(expected)

    def test_empty_inputs(self):
        cut = ConvexPolytope.box([0.2, 0.2], [0.5, 0.5])
        assert subtract_polytope_many([], cut, _solver()) == []
        universe = ConvexPolytope.universe(2)
        # Subtracting the (unconstrained) universe leaves nothing.
        assert subtract_polytope_many(
            [ConvexPolytope.unit_box(2)], universe, _solver()) == [[]]


class TestSolveManyEquivalence:
    """solve_many == a loop of solve, including memo accounting."""

    def _problems(self):
        box = ConvexPolytope.unit_box(2)
        slanted = box.with_constraint(
            LinearConstraint.make([1.0, 1.0], 0.8))
        empty = box.with_constraint(
            LinearConstraint.make([1.0, 0.0], -0.5))
        return [
            (np.zeros(2), box._a, box._b, None),
            (np.array([1.0, 0.0]), slanted._a, slanted._b, None),
            (np.zeros(2), empty._a, empty._b, None),
            (np.zeros(2), box._a, box._b, None),  # in-batch duplicate
        ]

    def test_results_match_sequential(self):
        batch_solver = _solver()
        batched = batch_solver.solve_many(self._problems(),
                                          purpose="emptiness")
        seq_solver = _solver()
        sequential = [seq_solver.solve(c, a, b, bounds,
                                       purpose="emptiness")
                      for c, a, b, bounds in self._problems()]
        assert len(batched) == len(sequential)
        for got, expected in zip(batched, sequential):
            assert got.status == expected.status
            assert (got.objective is None) == (expected.objective is None)
            if got.objective is not None:
                assert got.objective == pytest.approx(expected.objective)
        assert batch_solver.stats.solved == seq_solver.stats.solved
        assert batch_solver.stats.seconds > 0

    def test_memo_dedupes_within_batch(self):
        stats = LPStats()
        solver = LinearProgramSolver(stats=stats, cache_size=64)
        results = solver.solve_many(self._problems(), purpose="emptiness")
        # The duplicate unit-box problem is answered from the memo.
        assert stats.solved == 3
        assert stats.cache_hits == 1
        assert results[0].status == results[3].status
