"""Unit tests for convex polytopes and linear constraints."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DimensionMismatchError, EmptyRegionError
from repro.geometry import ConvexPolytope, LinearConstraint


class TestLinearConstraint:
    def test_normalization(self):
        c = LinearConstraint.make([2.0, 0.0], 4.0)
        assert c.a == pytest.approx([1.0, 0.0])
        assert c.b == pytest.approx(2.0)

    def test_contains_and_slack(self):
        c = LinearConstraint.make([1.0], 1.0)
        assert c.contains([0.5])
        assert not c.contains([1.5])
        assert c.slack([0.25]) == pytest.approx(0.75)

    def test_negation_shares_boundary(self):
        c = LinearConstraint.make([1.0, 1.0], 1.0)
        n = c.negation()
        boundary = np.array([0.5, 0.5])
        assert c.contains(boundary)
        assert n.contains(boundary)
        assert not n.contains([0.0, 0.0])

    def test_same_halfspace(self):
        c1 = LinearConstraint.make([2.0, 0.0], 2.0)
        c2 = LinearConstraint.make([4.0, 0.0], 4.0)
        c3 = LinearConstraint.make([1.0, 0.0], 0.9)
        assert c1.same_halfspace(c2)
        assert not c1.same_halfspace(c3)

    def test_trivial_detection(self):
        assert LinearConstraint.make([0.0], 1.0).is_trivial()
        assert LinearConstraint.make([0.0], -1.0).is_infeasible_trivial()

    def test_dimension_mismatch(self):
        c = LinearConstraint.make([1.0, 0.0], 1.0)
        with pytest.raises(DimensionMismatchError):
            c.contains([1.0])


class TestPolytopeBasics:
    def test_unit_box_contains(self, solver):
        box = ConvexPolytope.unit_box(2)
        assert box.contains_point([0.5, 0.5])
        assert box.contains_point([0.0, 1.0])
        assert not box.contains_point([1.2, 0.5])
        assert not box.is_empty(solver)

    def test_box_invalid_bounds(self):
        with pytest.raises(ValueError):
            ConvexPolytope.box([1.0], [0.0])
        with pytest.raises(ValueError):
            ConvexPolytope.box([0.0, 0.0], [1.0])

    def test_empty_polytope(self, solver):
        p = ConvexPolytope.from_arrays([[1.0], [-1.0]], [0.0, -1.0])
        assert p.is_empty(solver)

    def test_emptiness_cached(self, lp_stats, solver):
        p = ConvexPolytope.unit_box(1)
        p.is_empty(solver)
        first = lp_stats.solved
        p.is_empty(solver)
        assert lp_stats.solved == first

    def test_universe(self, solver):
        u = ConvexPolytope.universe(3)
        assert not u.is_empty(solver)
        assert u.contains_point([100.0, -5.0, 3.0])

    def test_duplicate_constraints_deduped(self):
        c = LinearConstraint.make([1.0], 1.0)
        p = ConvexPolytope(1, [c, c, c])
        assert p.num_constraints == 1

    def test_dimension_mismatch(self):
        c = LinearConstraint.make([1.0, 0.0], 1.0)
        with pytest.raises(DimensionMismatchError):
            ConvexPolytope(1, [c])


class TestOtherWidthZeroRows:
    """A zero-coefficient row of another width is a zero row of width dim."""

    def test_infeasible_row_stored_at_polytope_width(self, solver):
        p = ConvexPolytope(2, [LinearConstraint.make([0.0, 0.0, 0.0], -1.0)])
        assert p._a.shape == (1, 2)
        assert p.has_trivially_infeasible()
        assert not p.contains_point([0.5, 0.5])
        assert p.is_empty(solver)

    def test_ordinary_row_can_join(self, solver):
        infeasible = LinearConstraint.make([0.0, 0.0, 0.0], -1.0)
        ordinary = LinearConstraint.make([1.0, 0.0], 1.0)
        p = ConvexPolytope(2, [infeasible, ordinary])
        assert p._a.shape == (2, 2)
        q = ConvexPolytope.unit_box(2).with_constraint(infeasible)
        assert q.num_constraints == 5
        assert q.has_trivially_infeasible()
        assert q.is_empty(solver)
        assert ConvexPolytope(2, [infeasible]).with_constraint(
            ordinary).num_constraints == 2

    def test_zero_width_rows_mix_with_ordinary_rows(self):
        p = ConvexPolytope(2, [LinearConstraint.make([], -1.0),
                               LinearConstraint.make([0.0, 1.0], 1.0)])
        assert p._a.shape == (2, 2)
        assert p.has_trivially_infeasible()

    def test_trivially_satisfied_row_of_other_width_is_dropped(self):
        p = ConvexPolytope(2, [LinearConstraint.make([0.0, 0.0, 0.0], 1.0)])
        assert p.num_constraints == 0

    def test_nonzero_row_of_other_width_still_raises(self):
        with pytest.raises(DimensionMismatchError):
            ConvexPolytope(2, [LinearConstraint.make([0.0, 0.0, 1.0], 1.0)])
        with pytest.raises(DimensionMismatchError):
            ConvexPolytope.unit_box(2).with_halfspace([1.0, 0.0, 1.0], 1.0)

    def test_decoded_document_with_such_a_row(self, solver):
        from repro.core.serialize import _decode_polytope
        p = _decode_polytope({"dim": 2, "constraints": [
            {"a": [], "b": -1.0}, {"a": [1.0, 0.0], "b": 1.0}]})
        assert p._a.shape == (2, 2)
        assert not p.contains_point([0.5, 0.5])
        assert p.is_empty(solver)


class TestRowArrays:
    def test_merged_rows_are_read_only(self):
        box = ConvexPolytope.unit_box(2)
        merged = box.intersect(ConvexPolytope.box([0.5, 0.5], [2.0, 2.0]))
        for rows in (merged._a, merged._b, box._a):
            with pytest.raises(ValueError):
                rows[0] = 7.0
        extended = box.with_halfspace([1.0, 1.0], 1.5)
        with pytest.raises(ValueError):
            extended._a[0, 0] = 7.0
        # The rows the arrays are built from are tuples.
        for poly in (merged, box, extended):
            assert type(poly._lhs) is tuple and type(poly._rhs) is tuple
            assert all(type(row) is tuple for row in poly._lhs)

    def test_polytopes_share_unchanged_rows(self):
        box = ConvexPolytope.unit_box(2)
        same = box.with_constraint(box.constraints[0])
        assert same._lhs is box._lhs
        assert same._rhs is box._rhs
        assert same.num_constraints == box.num_constraints

    def test_with_halfspace_matches_with_constraint(self):
        box = ConvexPolytope.unit_box(2)
        for a, b in (([0.3, -0.7], 0.2), ([0.0, 0.0], -1.0),
                     ([0.0, 0.0], 1.0), ([2.0, 2.0], 2.0)):
            left = box.with_halfspace(a, b)
            right = box.with_constraint(LinearConstraint.make(a, b))
            assert left._a.tobytes() == right._a.tobytes()
            assert left._b.tobytes() == right._b.tobytes()
            assert left._keys == right._keys
            assert (left.has_trivially_infeasible()
                    == right.has_trivially_infeasible())

    def test_constraints_derived_from_rows(self):
        p = ConvexPolytope.from_arrays([[3.0, 4.0], [0.0, -2.0]], [5.0, 1.0])
        assert [c.key() for c in p.constraints] == list(p._keys)
        assert p.constraints[0].a.tolist() == [0.6, 0.8]
        assert p.constraints[1].b == 0.5


class TestChebyshev:
    def test_unit_square_center(self, solver):
        center, radius = ConvexPolytope.unit_box(2).chebyshev(solver)
        assert center == pytest.approx([0.5, 0.5])
        assert radius == pytest.approx(0.5)

    def test_degenerate_segment_has_no_interior(self, solver):
        # x0 in [0,1], x1 == 0.3: a line segment in 2-D.
        p = ConvexPolytope.box([0.0, 0.3], [1.0, 0.3])
        assert not p.has_interior(solver)

    def test_empty_has_negative_radius(self, solver):
        p = ConvexPolytope.box([0.0], [1.0]).intersect(
            ConvexPolytope.box([2.0], [3.0]))
        __, radius = p.chebyshev(solver)
        assert radius < 0 or p.is_empty(solver)

    def test_unbounded_radius(self, solver):
        p = ConvexPolytope.from_arrays([[-1.0, 0.0]], [0.0])  # x0 >= 0
        __, radius = p.chebyshev(solver)
        assert radius == np.inf

    def test_interior_point_inside(self, solver):
        p = ConvexPolytope.box([0.2, 0.4], [0.6, 0.9])
        x = p.interior_point(solver)
        assert p.contains_point(x)

    def test_interior_point_of_empty_raises(self, solver):
        p = ConvexPolytope.from_arrays([[1.0], [-1.0]], [-1.0, -1.0])
        with pytest.raises(EmptyRegionError):
            p.interior_point(solver)


class TestSetOperations:
    def test_intersection(self, solver):
        a = ConvexPolytope.box([0.0, 0.0], [1.0, 1.0])
        b = ConvexPolytope.box([0.5, 0.5], [2.0, 2.0])
        inter = a.intersect(b)
        assert inter.contains_point([0.7, 0.7])
        assert not inter.contains_point([0.2, 0.2])
        assert not inter.is_empty(solver)

    def test_intersection_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ConvexPolytope.unit_box(1).intersect(ConvexPolytope.unit_box(2))

    def test_containment(self, solver):
        outer = ConvexPolytope.unit_box(2)
        inner = ConvexPolytope.box([0.2, 0.2], [0.8, 0.8])
        assert outer.contains_polytope(inner, solver)
        assert not inner.contains_polytope(outer, solver)

    def test_containment_of_empty(self, solver):
        empty = ConvexPolytope.from_arrays([[1.0], [-1.0]], [-1.0, -1.0])
        box = ConvexPolytope.unit_box(1)
        assert box.contains_polytope(empty, solver)

    def test_remove_redundant(self, solver):
        box = ConvexPolytope.unit_box(1)
        loose = box.with_constraint(LinearConstraint.make([1.0], 5.0))
        assert loose.num_constraints == 3
        cleaned = loose.remove_redundant(solver)
        assert cleaned.num_constraints == 2
        # Semantics preserved.
        for x in (0.0, 0.5, 1.0):
            assert cleaned.contains_point([x]) == loose.contains_point([x])

    def test_cell_tag_propagation(self):
        box = ConvexPolytope.unit_box(2)
        box.cell_tag = ("cell", 7)
        child = box.with_constraint(LinearConstraint.make([1.0, 0.0], 0.5))
        assert child.cell_tag == ("cell", 7)
        other = ConvexPolytope.unit_box(2)
        assert box.intersect(other).cell_tag == ("cell", 7)
        assert other.intersect(box).cell_tag == ("cell", 7)


class TestGeometryHelpers:
    def test_bounding_box(self, solver):
        p = ConvexPolytope.box([0.25, -1.0], [0.75, 2.0])
        lows, highs = p.bounding_box(solver)
        assert lows == pytest.approx([0.25, -1.0])
        assert highs == pytest.approx([0.75, 2.0])

    def test_bounding_box_empty_raises(self, solver):
        empty = ConvexPolytope.from_arrays([[1.0], [-1.0]], [-1.0, -1.0])
        with pytest.raises(EmptyRegionError):
            empty.bounding_box(solver)

    def test_vertices_of_square(self, solver):
        p = ConvexPolytope.unit_box(2)
        verts = sorted(tuple(np.round(v, 6)) for v in p.vertices(solver))
        assert verts == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]

    def test_vertices_of_triangle(self, solver):
        p = ConvexPolytope.from_arrays(
            [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
        assert len(p.vertices(solver)) == 3

