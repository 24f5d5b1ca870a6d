"""Unit tests for polytope differences and union-convexity recognition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import (ConvexPolytope, envelope, subtract_polytope,
                            subtract_polytopes, union_as_polytope,
                            union_covers)


def covers_samples(pieces, base, excluded, samples=200, seed=0):
    """Check pieces == base minus excluded on random sample points."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(samples, base.dim))
    for x in pts:
        in_base = base.contains_point(x)
        in_excl = any(e.contains_point(x, tol=-1e-9) for e in excluded)
        in_pieces = any(p.contains_point(x) for p in pieces)
        if in_base and not in_excl and not in_pieces:
            return False
        if not in_base and in_pieces:
            return False
    return True


class TestSubtractPolytope:
    def test_middle_cut_interval(self, solver):
        base = ConvexPolytope.box([0.0], [1.0])
        cut = ConvexPolytope.box([0.4], [0.6])
        pieces = subtract_polytope(base, cut, solver)
        assert len(pieces) == 2
        assert covers_samples(pieces, base, [cut])

    def test_cut_covering_base(self, solver):
        base = ConvexPolytope.box([0.2], [0.8])
        cut = ConvexPolytope.box([0.0], [1.0])
        assert subtract_polytope(base, cut, solver) == []

    def test_disjoint_cut_returns_base(self, solver):
        base = ConvexPolytope.box([0.0], [0.3])
        cut = ConvexPolytope.box([0.5], [0.9])
        pieces = subtract_polytope(base, cut, solver)
        assert len(pieces) == 1
        assert pieces[0] is base

    def test_corner_cut_square(self, solver):
        base = ConvexPolytope.unit_box(2)
        cut = ConvexPolytope.box([0.0, 0.0], [0.5, 0.5])
        pieces = subtract_polytope(base, cut, solver)
        assert pieces
        assert covers_samples(pieces, base, [cut])

    def test_subtracting_universe(self, solver):
        base = ConvexPolytope.unit_box(2)
        assert subtract_polytope(base, ConvexPolytope(2),
                                 solver) == []

    def test_boundary_touching_cut_is_noop(self, solver):
        base = ConvexPolytope.box([0.0], [0.5])
        cut = ConvexPolytope.box([0.5], [1.0])  # shares only the point 0.5
        pieces = subtract_polytope(base, cut, solver)
        assert len(pieces) == 1


class TestSubtractPolytopes:
    def test_two_halves_cover(self, solver):
        base = ConvexPolytope.unit_box(2)
        left = ConvexPolytope.box([0.0, 0.0], [0.5, 1.0])
        right = ConvexPolytope.box([0.5, 0.0], [1.0, 1.0])
        assert subtract_polytopes(base, [left, right], solver) == []
        assert union_covers(base, [left, right], solver)

    def test_partial_cover_leaves_pieces(self, solver):
        base = ConvexPolytope.unit_box(2)
        left = ConvexPolytope.box([0.0, 0.0], [0.5, 1.0])
        pieces = subtract_polytopes(base, [left], solver)
        assert pieces
        assert covers_samples(pieces, base, [left])
        assert not union_covers(base, [left], solver)

    def test_order_independent_emptiness(self, solver):
        base = ConvexPolytope.box([0.0], [1.0])
        cuts = [ConvexPolytope.box([0.0], [0.4]),
                ConvexPolytope.box([0.3], [0.7]),
                ConvexPolytope.box([0.6], [1.0])]
        for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
            assert subtract_polytopes(
                base, [cuts[i] for i in order], solver) == []

    def test_empty_base(self, solver):
        base = ConvexPolytope.from_arrays([[1.0], [-1.0]], [-1.0, -1.0])
        assert subtract_polytopes(
            base, [ConvexPolytope.unit_box(1)], solver) == []


class TestEnvelopeAndConvexity:
    def test_adjacent_boxes_union_is_convex(self, solver):
        left = ConvexPolytope.box([0.0, 0.0], [0.5, 1.0])
        right = ConvexPolytope.box([0.5, 0.0], [1.0, 1.0])
        union = union_as_polytope([left, right], solver)
        assert union is not None
        # The union must equal the unit square.
        square = ConvexPolytope.unit_box(2)
        assert union.contains_polytope(square, solver)
        assert square.contains_polytope(union, solver)

    def test_l_shape_is_not_convex(self, solver):
        bottom = ConvexPolytope.box([0.0, 0.0], [1.0, 0.5])
        left = ConvexPolytope.box([0.0, 0.0], [0.5, 1.0])
        assert union_as_polytope([bottom, left], solver) is None

    def test_disjoint_boxes_not_convex(self, solver):
        a = ConvexPolytope.box([0.0], [0.2])
        b = ConvexPolytope.box([0.8], [1.0])
        assert union_as_polytope([a, b], solver) is None

    def test_single_polytope_is_itself(self, solver):
        p = ConvexPolytope.unit_box(2)
        assert union_as_polytope([p], solver) is p

    def test_overlapping_boxes_union_convex(self, solver):
        a = ConvexPolytope.box([0.0], [0.7])
        b = ConvexPolytope.box([0.4], [1.0])
        union = union_as_polytope([a, b], solver)
        assert union is not None
        assert union.contains_point([0.0])
        assert union.contains_point([1.0])

    def test_envelope_contains_union(self, solver):
        a = ConvexPolytope.box([0.0, 0.0], [0.4, 0.4])
        b = ConvexPolytope.box([0.6, 0.6], [1.0, 1.0])
        env = envelope([a, b], solver)
        for p in (a, b):
            assert env.contains_polytope(p, solver)

    def test_envelope_requires_input(self, solver):
        with pytest.raises(ValueError):
            envelope([], solver)

    def test_nested_polytopes(self, solver):
        outer = ConvexPolytope.unit_box(2)
        inner = ConvexPolytope.box([0.3, 0.3], [0.6, 0.6])
        union = union_as_polytope([outer, inner], solver)
        assert union is not None
        assert union.contains_polytope(outer, solver)
