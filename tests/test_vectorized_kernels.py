"""Oracles for the geometry and cost kernels.

Each operation has one implementation; these tests check it against an
independent reference:

* the batched region difference (:func:`repro.geometry.subtract_polytope_many`,
  which decides all candidate pieces in one interior pass) against a loop
  of the single-base :func:`repro.geometry.subtract_polytope`, per call and
  over whole optimizations under both built-in scenarios;
* the unaligned PWL operations (general ``Dom``, ``add``, ``maximum`` /
  ``minimum`` and ``bounds_on``, the paper's per-piece-pair loops) against
  pointwise evaluation at seeded sample points;
* ``solve_many`` against a loop of ``solve``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.geometry.difference as difference_module
import repro.geometry.region as region_module
from repro.core import PWLRRPAOptions, encode_result
from repro.core.serialize import _encode_polytope
from repro.cost import MultiObjectivePWL, PiecewiseLinearFunction
from repro.errors import EmptyRegionError
from repro.geometry import (ConvexPolytope, LinearConstraint,
                            subtract_polytope, subtract_polytope_many)
from repro.lp import LinearProgramSolver, LPStats
from repro.query import QueryGenerator
from repro.service.registry import get_scenario

#: Seeded sample points per pointwise oracle.
SAMPLES = 400


def _polys_key(polys):
    """Exact (bitwise) representation of a polytope list."""
    return json.dumps([_encode_polytope(p) for p in polys], sort_keys=True)


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


def _subtract_one_by_one(bases, cut, solver):
    """Reference region difference: one :func:`subtract_polytope` per base."""
    return [subtract_polytope(base, cut, solver) for base in bases]


def _reference_difference(monkeypatch) -> None:
    """Route every region difference through :func:`_subtract_one_by_one`.

    Both modules that bind ``subtract_polytope_many`` are patched:
    ``repro.geometry.difference`` (behind ``subtract_polytopes``) and
    ``repro.geometry.region`` (incremental residual refreshes).
    """
    for module in (difference_module, region_module):
        monkeypatch.setattr(module, "subtract_polytope_many",
                            _subtract_one_by_one)


class TestFullRunEquivalence:
    """Whole optimizations: batched difference vs. the per-base loop."""

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
        with monkeypatch.context() as patch:
            _reference_difference(patch)
            reference = get_scenario(scenario).optimize(query)
        batched = get_scenario(scenario).optimize(query)
        assert (json.dumps(encode_result(batched), sort_keys=True)
                == json.dumps(encode_result(reference), sort_keys=True))
        # Pruning decisions match one for one, not just final plan sets.
        for counter in ("plans_created", "plans_inserted",
                        "plans_discarded_new", "plans_displaced_old"):
            assert (getattr(batched.stats, counter)
                    == getattr(reference.stats, counter)), counter

    @pytest.mark.parametrize("scenario,seed,shape", [
        ("cloud", 0, "chain"),
        ("cloud", 7, "star"),
        ("approx", 1, "chain"),
    ])
    def test_two_params_across_memo_sizes(self, monkeypatch, scenario,
                                          seed, shape):
        """2-parameter runs at the default memo and at one small enough
        to evict: plan sets and pruning counters match the per-base
        reference, and the LP requests (solved + memo hits) do not
        depend on what the memo evicted."""
        query = QueryGenerator(seed=seed).generate(3, shape, 2)
        with monkeypatch.context() as patch:
            _reference_difference(patch)
            reference = get_scenario(scenario).optimize(query, resolution=1)
        reference_doc = json.dumps(encode_result(reference), sort_keys=True)
        requests = set()
        for cache_size in (PWLRRPAOptions().lp_cache_size, 32):
            batched = get_scenario(scenario).optimize(
                query, resolution=1,
                options=PWLRRPAOptions(lp_cache_size=cache_size))
            assert json.dumps(encode_result(batched),
                              sort_keys=True) == reference_doc
            for counter in ("plans_created", "plans_inserted",
                            "plans_discarded_new", "plans_displaced_old",
                            "pruning_comparisons"):
                assert (getattr(batched.stats, counter)
                        == getattr(reference.stats, counter)), counter
            requests.add(batched.stats.lps_solved
                         + batched.stats.lp_stats.cache_hits)
        assert len(requests) == 1


class TestUnalignedKernelEquivalence:
    """General ``Dom`` and ``add`` against pointwise evaluation."""

    @pytest.mark.parametrize("seed", range(6))
    def test_general_dominance_identical(self, seed):
        """A sample lies in a returned polytope iff every metric has
        ``one(x) <= (1 + relax) * two(x)`` (sound and complete), away
        from a 1e-7 margin around the boundary."""
        rng = np.random.default_rng(seed)
        space = ConvexPolytope.unit_box(2)
        one = MultiObjectivePWL({
            "time": _random_unaligned_pwl(rng, space, 3),
            "fees": _random_unaligned_pwl(rng, space, 2)})
        two = MultiObjectivePWL({
            "time": _random_unaligned_pwl(rng, space, 2),
            "fees": _random_unaligned_pwl(rng, space, 3)})
        relax = float(rng.choice([0.0, 0.2]))
        polys = one.dominance_polytopes(two, _solver(), relax=relax)
        for x in rng.uniform(0.0, 1.0, size=(SAMPLES, 2)):
            mine, theirs = one.evaluate(x), two.evaluate(x)
            slack = min((1 + relax) * theirs[m] - mine[m] for m in mine)
            covered = any(poly.contains_point(x) for poly in polys)
            if covered:
                assert slack >= -1e-7, (x, slack)
            if slack > 1e-7:
                assert covered, (x, slack)

    @pytest.mark.parametrize("seed", range(6))
    def test_general_add_identical(self, seed):
        """``(one + two)(x) == one(x) + two(x)`` at every sample."""
        rng = np.random.default_rng(100 + seed)
        space = ConvexPolytope.unit_box(2)
        one = _random_unaligned_pwl(rng, space, 3)
        two = _random_unaligned_pwl(rng, space, 3)
        total = one.add(two, _solver())
        for x in rng.uniform(0.0, 1.0, size=(SAMPLES, 2)):
            assert total.evaluate(x) == pytest.approx(
                one.evaluate(x) + two.evaluate(x), rel=0, abs=1e-9)


class TestBoundsAndExtremumEquivalence:
    """``bounds_on`` / ``maximum`` / ``minimum`` against pointwise
    evaluation."""

    @pytest.mark.parametrize("seed", range(4))
    def test_bounds_on_identical(self, seed):
        """Every sample of the region lies within ``[lo, hi]``."""
        rng = np.random.default_rng(300 + seed)
        space = ConvexPolytope.unit_box(2)
        function = _random_unaligned_pwl(rng, space, 3)
        lo = rng.uniform(0.0, 0.4, 2)
        hi = lo + rng.uniform(0.3, 0.5, 2)
        region = ConvexPolytope.box(lo, hi)
        low, high = function.bounds_on(region, _solver())
        for x in rng.uniform(lo, hi, size=(SAMPLES, 2)):
            assert low - 1e-9 <= function.evaluate(x) <= high + 1e-9, x

    def test_bounds_on_raises_off_domain(self):
        rng = np.random.default_rng(42)
        space = ConvexPolytope.unit_box(2)
        function = _random_unaligned_pwl(rng, space, 2)
        outside = ConvexPolytope.box([2.0, 2.0], [3.0, 3.0])
        with pytest.raises(EmptyRegionError):
            function.bounds_on(outside, _solver())

    def test_bounds_on_raises_when_unbounded(self):
        """Non-empty overlaps whose min/max LPs are all unbounded must
        raise rather than return the unusable (inf, -inf) pair."""
        universe = ConvexPolytope.universe(2)
        function = PiecewiseLinearFunction.affine(universe, [1.0, 0.0],
                                                  0.0)
        with pytest.raises(EmptyRegionError, match="bounded"):
            function.bounds_on(universe, _solver())

    @pytest.mark.parametrize("seed,take_max", [
        (0, True), (1, True), (2, False), (3, False)])
    def test_extremum_identical(self, seed, take_max):
        """The crossing-split general path (unaligned operands):
        ``h(x) == max/min(one(x), two(x))`` at every sample."""
        rng = np.random.default_rng(400 + seed)
        space = ConvexPolytope.unit_box(2)
        one = _random_unaligned_pwl(rng, space, 3)
        two = _random_unaligned_pwl(rng, space, 2)
        combine, pick = ((PiecewiseLinearFunction.maximum, max) if take_max
                         else (PiecewiseLinearFunction.minimum, min))
        combined = combine(one, two, _solver())
        for x in rng.uniform(0.0, 1.0, size=(SAMPLES, 2)):
            assert combined.evaluate(x) == pytest.approx(
                pick(one.evaluate(x), two.evaluate(x)), rel=0, abs=1e-9)


class TestBatchedDifferenceEquivalence:
    """subtract_polytope_many vs. per-base subtract_polytope."""

    @pytest.mark.parametrize("seed", range(4))
    def test_subtraction_identical(self, seed):
        rng = np.random.default_rng(200 + seed)
        bases = []
        for __ in range(4):
            lo = rng.uniform(0.0, 0.4, 2)
            hi = lo + rng.uniform(0.3, 0.6, 2)
            bases.append(ConvexPolytope.box(lo, np.minimum(hi, 1.0)))
        cut_lo = rng.uniform(0.1, 0.5, 2)
        cut = ConvexPolytope.box(cut_lo, cut_lo + 0.35)
        batched = subtract_polytope_many(
            [ConvexPolytope.from_arrays(b._a, b._b) for b in bases],
            cut, _solver())
        reference = _subtract_one_by_one(
            [ConvexPolytope.from_arrays(b._a, b._b) for b in bases],
            cut, _solver())
        assert len(batched) == len(reference)
        for got, expected in zip(batched, reference):
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
