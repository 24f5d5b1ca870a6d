"""Unit tests for relevance regions (Algorithm 2 data structure)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DimensionMismatchError
from repro.geometry import (ConvexPolytope, RelevanceRegion,
                            default_relevance_points, subtract_polytopes)

from tests.helpers import interior_witness


def unit_region(solver, with_points=False, dim=1):
    space = ConvexPolytope.unit_box(dim)
    points = default_relevance_points(space, solver) if with_points else None
    return RelevanceRegion(space, relevance_points=points)


class TestBasicLifecycle:
    def test_fresh_region_is_full_space(self, solver):
        rr = unit_region(solver)
        assert not rr.is_empty(solver)
        assert rr.contains_point([0.5])
        assert rr.num_cutouts == 0

    def test_partial_cut_keeps_region(self, solver):
        rr = unit_region(solver)
        rr.subtract(ConvexPolytope.box([0.0], [0.4]))
        assert not rr.is_empty(solver)
        assert not rr.contains_point([0.2])
        assert rr.contains_point([0.7])

    def test_full_cover_empties(self, solver):
        rr = unit_region(solver)
        rr.subtract(ConvexPolytope.box([0.0], [0.6]))
        rr.subtract(ConvexPolytope.box([0.5], [1.0]))
        assert rr.is_empty(solver)

    def test_universe_cut_empties_immediately(self, solver):
        rr = unit_region(solver)
        rr.subtract(ConvexPolytope(1))
        assert rr.is_empty(solver)

    def test_duplicate_cutout_skipped(self, solver):
        rr = unit_region(solver)
        cut = ConvexPolytope.box([0.0], [0.3])
        rr.subtract(cut)
        rr.subtract(ConvexPolytope.box([0.0], [0.3]))
        assert rr.num_cutouts == 1

    def test_dimension_mismatch(self, solver):
        rr = unit_region(solver)
        with pytest.raises(DimensionMismatchError):
            rr.subtract(ConvexPolytope.unit_box(2))

    def test_incremental_matches_fresh_computation(self, solver):
        cuts = [ConvexPolytope.box([0.0], [0.3]),
                ConvexPolytope.box([0.2], [0.55]),
                ConvexPolytope.box([0.5], [0.8])]
        incremental = unit_region(solver)
        for cut in cuts:
            incremental.subtract(cut)
            incremental.is_empty(solver)  # force residual refresh
        fresh = RelevanceRegion(ConvexPolytope.unit_box(1), cutouts=cuts)
        assert incremental.is_empty(solver) == fresh.is_empty(solver)
        for x in np.linspace(0, 1, 21):
            assert incremental.contains_point([x]) == \
                fresh.contains_point([x])


class TestRelevancePoints:
    def test_points_avoid_lps(self, solver, lp_stats):
        rr = unit_region(solver, with_points=True)
        base = lp_stats.solved
        rr.subtract(ConvexPolytope.box([0.0], [0.1]))
        assert not rr.is_empty(solver)
        # Surviving points prove non-emptiness without solving LPs.
        assert lp_stats.solved == base

    def test_points_deleted_by_cutouts(self, solver):
        rr = unit_region(solver, with_points=True)
        assert rr.relevance_points
        rr.subtract(ConvexPolytope.box([0.0], [1.0]))
        assert rr.relevance_points == []

    def test_empty_after_points_exhausted(self, solver):
        rr = unit_region(solver, with_points=True)
        rr.subtract(ConvexPolytope.box([0.0], [0.5]))
        rr.subtract(ConvexPolytope.box([0.5], [1.0]))
        assert rr.is_empty(solver)

    def test_points_exhausted_but_region_alive(self, solver):
        # Points cluster in [0.08, 0.92]; cut that strip but leave edges.
        rr = unit_region(solver, with_points=True)
        rr.subtract(ConvexPolytope.box([0.05], [0.95]))
        assert rr.relevance_points == []
        assert not rr.is_empty(solver)  # [0, 0.05] survives
        assert rr.contains_point([0.02])


class TestStrategies:
    def test_convexity_strategy_detects_cover(self, solver):
        rr = unit_region(solver)
        rr.subtract(ConvexPolytope.box([0.0], [0.6]))
        rr.subtract(ConvexPolytope.box([0.4], [1.0]))
        assert rr.is_empty(solver, strategy="convexity")

    def test_convexity_strategy_nonempty(self, solver):
        rr = unit_region(solver)
        rr.subtract(ConvexPolytope.box([0.0], [0.3]))
        assert not rr.is_empty(solver, strategy="convexity")

    def test_convexity_conservative_on_nonconvex_union(self, solver):
        # Cutouts union to an L-shape covering nothing completely: the
        # convexity strategy must answer non-empty (it is conservative).
        rr = unit_region(solver, dim=2)
        rr.subtract(ConvexPolytope.box([0.0, 0.0], [1.0, 0.5]))
        rr.subtract(ConvexPolytope.box([0.0, 0.0], [0.5, 1.0]))
        assert not rr.is_empty(solver, strategy="convexity")
        # The difference strategy sees the remaining quarter too.
        assert not rr.is_empty(solver, strategy="difference")

    def test_unknown_strategy_rejected(self, solver):
        rr = unit_region(solver)
        rr.subtract(ConvexPolytope.box([0.0], [0.4]))
        with pytest.raises(ValueError):
            rr.is_empty(solver, strategy="guess")


class TestMaintenance:
    def test_witness_inside_region(self, solver):
        rr = unit_region(solver)
        rr.subtract(ConvexPolytope.box([0.0], [0.6]))
        assert not rr.is_empty(solver)
        w = interior_witness(rr, solver)
        assert w is not None
        assert rr.contains_point(w)

    def test_witness_none_when_empty(self, solver):
        rr = unit_region(solver)
        rr.subtract(ConvexPolytope.box([0.0], [1.0]))
        assert rr.is_empty(solver)
        assert interior_witness(rr, solver) is None

    def test_sliver_answers_with_the_one_interior_tolerance(self, solver):
        # [0.98, 1] has Chebyshev radius 0.01, far above INTERIOR_EPS.
        # The region caches its residual and emptiness verdict, so the
        # tolerance is a constant: a per-call value would leak into
        # later answers.
        rr = unit_region(solver)
        rr.subtract(ConvexPolytope.box([0.0], [0.98]))
        assert not rr.is_empty(solver)
        w = interior_witness(rr, solver)
        assert w is not None and 0.98 <= w[0] <= 1.0
        with pytest.raises(TypeError):
            rr.is_empty(solver, interior_eps=0.05)
        assert not rr.is_empty(solver)

    def test_remove_redundant_cutouts(self, solver):
        rr = unit_region(solver)
        rr.subtract(ConvexPolytope.box([0.0], [0.5]))
        rr.subtract(ConvexPolytope.box([0.1], [0.4]))  # inside the first
        removed = rr.remove_redundant_cutouts(solver)
        assert removed == 1
        assert rr.num_cutouts == 1
        assert not rr.contains_point([0.3])
        assert rr.contains_point([0.8])

    def test_to_polytopes_covers_region(self, solver):
        rr = unit_region(solver)
        rr.subtract(ConvexPolytope.box([0.4], [0.6]))
        # The region as convex pieces: its space minus its cutouts.
        pieces = subtract_polytopes(rr.space, rr.cutouts, solver)
        assert len(pieces) == 2
        for x in np.linspace(0, 1, 21):
            expected = rr.contains_point([x])
            got = any(p.contains_point([x]) for p in pieces)
            if 0.38 < x < 0.42 or 0.58 < x < 0.62:
                continue  # boundary tolerance
            assert expected == got

    def test_initial_pieces_seed_residual(self, solver, lp_stats):
        space = ConvexPolytope.unit_box(1)
        cells = [ConvexPolytope.box([0.0], [0.5]),
                 ConvexPolytope.box([0.5], [1.0])]
        for i, cell in enumerate(cells):
            cell.cell_tag = ("t", i)
        rr = RelevanceRegion(space, initial_pieces=cells)
        cut = ConvexPolytope.box([0.0], [0.5])
        cut.cell_tag = ("t", 0)
        cut.vertex_hint = np.array([[0.0], [0.5]])
        rr.subtract(cut)
        assert not rr.is_empty(solver)
        cut2 = ConvexPolytope.box([0.5], [1.0])
        cut2.cell_tag = ("t", 1)
        cut2.vertex_hint = np.array([[0.5], [1.0]])
        rr.subtract(cut2)
        assert rr.is_empty(solver)
