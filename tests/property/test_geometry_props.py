"""Property-based tests (hypothesis) for the geometry substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.serialize import _decode_polytope
from repro.geometry import (GEOMETRY_EPS, ConvexPolytope,
                            RelevanceRegion, box_simplices,
                            subtract_polytope, subtract_polytopes)
from repro.geometry.constraints import normalize_rows
from repro.geometry.polytope import _add_row, _keyed, _merge
from repro.lp import LinearProgramSolver, LPStats

from tests.helpers import interior_witness


def fresh_solver() -> LinearProgramSolver:
    return LinearProgramSolver(stats=LPStats())


coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                   allow_infinity=False)


@st.composite
def boxes_1d(draw):
    a = draw(coords)
    b = draw(coords)
    lo, hi = min(a, b), max(a, b)
    return ConvexPolytope.box([lo], [hi + 1e-3])


@st.composite
def boxes_2d(draw):
    a1, b1 = sorted((draw(coords), draw(coords)))
    a2, b2 = sorted((draw(coords), draw(coords)))
    return ConvexPolytope.box([a1, a2], [b1 + 1e-3, b2 + 1e-3])


class TestConstraintProperties:
    """One halfspace ``a @ x <= b`` as a polytope's normalized row."""

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=2),
           st.floats(-10, 10))
    def test_normalization_preserves_halfspace(self, a, b):
        if all(abs(v) < 1e-9 for v in a):
            return
        c = ConvexPolytope(2).with_halfspace(a, b)
        rng = np.random.default_rng(0)
        for x in rng.uniform(-3, 3, size=(20, 2)):
            raw = float(np.dot(a, x)) <= b + 1e-7 * max(1, abs(b))
            norm = c.contains_point(x, tol=1e-7)
            assert raw == norm or abs(np.dot(a, x) - b) < 1e-5

    @settings(deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
           st.floats(-5, 5))
    def test_negation_covers_space(self, a, b):
        if all(abs(v) < 1e-9 for v in a):
            return
        # Subtracting the halfspace from the whole plane leaves its
        # closed complement, the negated row.
        c = ConvexPolytope(2).with_halfspace(a, b)
        rest = subtract_polytope(ConvexPolytope(2), c, fresh_solver())
        rng = np.random.default_rng(1)
        for x in rng.uniform(-3, 3, size=(20, 2)):
            assert c.contains_point(x) or any(
                piece.contains_point(x) for piece in rest)


class TestSubtractionProperties:
    @settings(max_examples=25, deadline=None)
    @given(boxes_1d(), boxes_1d())
    def test_pieces_disjoint_from_cut_interior(self, base, cut):
        solver = fresh_solver()
        pieces = subtract_polytope(base, cut, solver)
        rng = np.random.default_rng(2)
        for piece in pieces:
            assert base.contains_polytope(piece, solver)
        for x in rng.uniform(0, 1.01, size=(30, 1)):
            in_base = base.contains_point(x, tol=-1e-9)
            strictly_in_cut = cut.contains_point(x, tol=-1e-6)
            in_pieces = any(p.contains_point(x) for p in pieces)
            if in_base and not cut.contains_point(x, tol=1e-6):
                assert in_pieces
            if in_pieces:
                assert base.contains_point(x, tol=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(boxes_2d(), min_size=1, max_size=3))
    def test_subtract_all_of_space_empties(self, cuts):
        solver = fresh_solver()
        base = ConvexPolytope.unit_box(2)
        pieces = subtract_polytopes(base, cuts + [base], solver)
        assert pieces == []

    @settings(max_examples=20, deadline=None)
    @given(boxes_2d())
    def test_subtracting_base_from_itself(self, box):
        solver = fresh_solver()
        assert subtract_polytope(box, box, solver) == []


class TestRelevanceRegionProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(boxes_1d(), min_size=0, max_size=4))
    def test_membership_matches_definition(self, cuts):
        solver = fresh_solver()
        space = ConvexPolytope.unit_box(1)
        rr = RelevanceRegion(space)
        for cut in cuts:
            rr.subtract(cut)
        rng = np.random.default_rng(3)
        for x in rng.uniform(0, 1, size=(30, 1)):
            expected = (space.contains_point(x)
                        and not any(c.contains_point(x)
                                    for c in rr.cutouts))
            assert rr.contains_point(x) == expected

    @settings(max_examples=20, deadline=None)
    @given(st.lists(boxes_1d(), min_size=1, max_size=4))
    def test_emptiness_iff_no_witness(self, cuts):
        solver = fresh_solver()
        rr = RelevanceRegion(ConvexPolytope.unit_box(1))
        for cut in cuts:
            rr.subtract(cut)
        empty = rr.is_empty(solver)
        witness = interior_witness(rr, solver)
        assert empty == (witness is None)
        if witness is not None:
            assert rr.contains_point(witness)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(boxes_1d(), min_size=1, max_size=4),
           st.permutations(range(4)))
    def test_emptiness_order_invariant(self, cuts, order):
        solver = fresh_solver()
        ordered = [cuts[i % len(cuts)] for i in order[:len(cuts)]]
        rr1 = RelevanceRegion(ConvexPolytope.unit_box(1), cutouts=cuts)
        rr2 = RelevanceRegion(ConvexPolytope.unit_box(1), cutouts=ordered)
        # Same cutout set (up to duplication) -> same emptiness.
        if set(map(id, cuts)) == set(map(id, ordered)):
            assert rr1.is_empty(solver) == rr2.is_empty(solver)


class TestSimplexGridProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=2))
    def test_simplices_cover_box(self, resolution, dim):
        simplices = box_simplices([0.0] * dim, [1.0] * dim, resolution)
        cells = [simplex.to_polytope() for simplex in simplices]
        rng = np.random.default_rng(4)
        for x in rng.uniform(0, 1, size=(40, dim)):
            assert any(cell.contains_point(x, tol=1e-9) for cell in cells)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=3))
    def test_interpolation_exact_for_affine(self, resolution):
        simplices = box_simplices([0.0, 0.0], [1.0, 1.0], resolution)
        w_true, b_true = np.array([2.0, -1.0]), 0.5
        for s in simplices:
            w, b = s.affine_interpolant(
                [float(w_true @ v + b_true) for v in s.vertices])
            assert np.allclose(w, w_true, atol=1e-8)
            assert abs(b - b_true) < 1e-8


# ----------------------------------------------------------------------
# Row representation against per-row arithmetic.  The references below
# are the row-at-a-time computations polytopes were built with before
# they stored rows in blocks, kept here test-only: the row code must
# agree with them bit for bit.
# ----------------------------------------------------------------------

def reference_make(a, b):
    """One row normalized on its own, with ``np.linalg.norm``."""
    vec = np.asarray(a, dtype=float).reshape(-1)
    norm = float(np.linalg.norm(vec))
    if norm > GEOMETRY_EPS:
        vec = vec / norm
        b = float(b) / norm
    return vec.copy(), float(b)


def reference_key(a, b):
    return (tuple(np.round(a, 9)), round(b, 9))


def reference_dedupe(rows):
    """The ``_dedupe`` loop over normalized ``(a, b)`` rows."""
    seen, kept = set(), []
    for a, b in rows:
        zero = bool(np.all(np.abs(a) <= GEOMETRY_EPS))
        if zero and b >= -GEOMETRY_EPS:
            continue  # trivially satisfied
        key = reference_key(a, b)
        if key in seen:
            continue
        seen.add(key)
        kept.append((a, b))
    return kept


def assert_rows_match(poly, dim, kept):
    """``poly`` holds ``kept`` (as ``constraints_to_arrays`` stacked them)."""
    a = (np.vstack([row for row, __ in kept]) if kept
         else np.zeros((0, dim)))
    b = np.array([rhs for __, rhs in kept], dtype=float)
    assert poly._a.shape == a.shape
    assert poly._a.tobytes() == a.tobytes()
    assert poly._b.tobytes() == b.tobytes()
    assert list(poly._keys) == [reference_key(*row) for row in kept]
    assert poly.has_trivially_infeasible() == any(
        bool(np.all(np.abs(row) <= GEOMETRY_EPS)) and rhs < -GEOMETRY_EPS
        for row, rhs in kept)


def polytope(dim, rows) -> ConvexPolytope:
    """``ConvexPolytope.from_arrays`` of raw ``(a, b)`` rows."""
    return ConvexPolytope.from_arrays(
        np.reshape([row for row, __ in rows], (len(rows), dim)),
        [rhs for __, rhs in rows])


def same_bits(x, y) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
away_from_zero = st.floats(0.1, 1.0) | st.floats(-1.0, -0.1)
#: Scale factors putting a row's norm just below, at or just above
#: GEOMETRY_EPS.
near_one = st.sampled_from((1 - 1e-9, 1 - 2 ** -50, 1.0, 1 + 2 ** -50,
                            1 + 1e-9))


@st.composite
def raw_rows(draw, width: int, min_size: int = 1, max_size: int = 8):
    """``(a, b)`` rows of one width, mixing the cases the normalizer and
    the dedupe merge must get right: plain rows, norms either side of
    GEOMETRY_EPS, zero rows (trivial or infeasible by the sign of
    ``b``), already-normalized rows, and exact and after-rounding
    duplicates of earlier rows."""
    rows = []
    for __ in range(draw(st.integers(min_size, max_size))):
        kind = draw(st.sampled_from(("plain", "near_eps", "zero", "unit",
                                     "duplicate")))
        b = draw(finite)
        plain = np.array(draw(st.lists(finite, min_size=width,
                                       max_size=width)))
        if kind == "near_eps":
            direction = np.array(draw(st.lists(
                away_from_zero, min_size=width, max_size=width)))
            a = (direction / np.linalg.norm(direction) * GEOMETRY_EPS
                 * draw(near_one))
            b = b * GEOMETRY_EPS
        elif kind == "zero":
            a = np.zeros(width)
        elif kind == "unit":
            a, b = reference_make(plain, b)
        elif kind == "duplicate" and rows:
            a, b = rows[draw(st.integers(0, len(rows) - 1))]
            scale = draw(st.sampled_from((1.0, 3.0, 1 + 1e-13)))
            a, b = a * scale, b * scale
        else:
            a = plain
        rows.append((np.asarray(a, dtype=float), float(b)))
    return rows


class TestRowNormalizer:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(raw_rows))
    def test_matches_per_row_make_bytewise(self, rows):
        a, b = normalize_rows(np.array([row for row, __ in rows]),
                              [rhs for __, rhs in rows])
        expected = [reference_make(*row) for row in rows]
        assert a.tobytes() == np.array(
            [row for row, __ in expected]).tobytes()
        assert b.tobytes() == np.array(
            [rhs for __, rhs in expected]).tobytes()
        for (raw, rhs), (row, row_rhs) in zip(rows, expected):
            made_a, made_b = normalize_rows(np.reshape(raw, (1, -1)), [rhs])
            assert made_a[0].tobytes() == row.tobytes()
            assert same_bits(made_b[0], row_rhs)
            # The negated cut rows re-normalize a stored row, whose norm
            # need not be exactly 1.
            neg_a, neg_b = normalize_rows(-made_a, -made_b)
            neg_row, neg_rhs = reference_make(-row, -row_rhs)
            assert neg_a[0].tobytes() == neg_row.tobytes()
            assert same_bits(neg_b[0], neg_rhs)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_matches_on_seeded_random_rows(self, width):
        rng = np.random.default_rng(width)
        raw = rng.normal(size=(4000, width)) * rng.choice(
            [1e-3, 1.0, 1e3], size=(4000, 1))
        rhs = rng.normal(size=4000)
        a, b = normalize_rows(raw, rhs)
        expected = [reference_make(row, value)
                    for row, value in zip(raw, rhs)]
        assert a.tobytes() == np.array(
            [row for row, __ in expected]).tobytes()
        assert b.tobytes() == np.array(
            [value for __, value in expected]).tobytes()
        # Already-normalized rows, renormalized as negation does.
        again, __ = normalize_rows(-a, -b)
        assert again.tobytes() == np.array(
            [reference_make(-row, 0.0)[0] for row in a]).tobytes()


class TestRowMerge:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda width: st.tuples(
        st.just(width), raw_rows(width), raw_rows(width, min_size=0))))
    def test_matches_object_dedupe(self, case):
        dim, left, right = case
        left_made = [reference_make(*row) for row in left]
        right_made = [reference_make(*row) for row in right]
        kept_left = reference_dedupe(left_made)
        kept_right = reference_dedupe(right_made)

        built = polytope(dim, left)
        assert_rows_match(built, dim, kept_left)
        decoded = _decode_polytope({"dim": dim, "constraints": [
            {"a": row.tolist(), "b": rhs} for row, rhs in left]})
        assert_rows_match(decoded, dim, kept_left)

        other = polytope(dim, right)
        assert_rows_match(built.intersect(other), dim,
                          reference_dedupe(kept_left + kept_right))
        assert_rows_match(other.intersect(built), dim,
                          reference_dedupe(kept_right + kept_left))
        for raw, made in zip(right, right_made):
            expected = reference_dedupe(kept_left + [made])
            assert_rows_match(built.with_halfspace(*raw), dim, expected)


def assert_same_rows(left: ConvexPolytope, right: ConvexPolytope) -> None:
    """Two polytopes hold the same rows bit for bit, in the same order,
    with the same keys, infeasible flag and cell tag."""
    assert left.dim == right.dim
    assert left._a.shape == right._a.shape
    assert left._a.tobytes() == right._a.tobytes()
    assert left._b.tobytes() == right._b.tobytes()
    assert left._keys == right._keys
    assert left.has_trivially_infeasible() == right.has_trivially_infeasible()
    assert left.cell_tag == right.cell_tag


class TestOneRowMerge:
    """``_add_row``, the one-row fast path of ``ConvexPolytope.__init__``,
    against the general ``_merge``."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda width: st.tuples(
        st.just(width), raw_rows(width, min_size=0), raw_rows(width))))
    def test_matches_general_merge(self, case):
        dim, own_rows, new_rows = case
        own = polytope(dim, own_rows)
        # Absent rows (and trivial or infeasible zero rows among them),
        # rows the polytope already holds, and an infeasible zero row.
        added = (new_rows
                 + [(a, b) for a, b in zip(own._a, own._b.tolist())]
                 + [(np.zeros(dim), -1.0)])
        for a, b in added:
            block = _keyed(*normalize_rows(np.reshape(a, (1, -1)), [b]))
            fast = _add_row(own._rows(), block)
            general = _merge((own._rows(), block))
            assert (np.array(fast[0]).reshape(-1, dim).tobytes()
                    == np.array(general[0]).reshape(-1, dim).tobytes())
            assert (np.array(fast[1], dtype=float).tobytes()
                    == np.array(general[1], dtype=float).tobytes())
            assert fast[2] == general[2]
            assert fast[3] == general[3]
            # Immutable rows: blocks are shared between polytopes.
            assert type(fast[0]) is tuple and type(fast[1]) is tuple


class TestBulkHalfspaces:
    """``ConvexPolytope.with_halfspaces_many`` against chained
    ``with_halfspace`` calls."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda width: st.tuples(
        st.just(width),
        st.lists(st.tuples(raw_rows(width),
                           raw_rows(width, min_size=0, max_size=3),
                           st.booleans()),
                 min_size=1, max_size=4))))
    def test_matches_chained_with_halfspace(self, case):
        dim, groups = case
        bases, rows, counts = [], [], []
        for index, (base_rows, new_rows, repeat_own) in enumerate(groups):
            base = polytope(dim, base_rows)
            base.cell_tag = ("cell", index)
            if repeat_own and base.num_constraints:
                # A row the base already holds.
                new_rows = [(base._a[0], float(base._b[0]))] + new_rows
            bases.append(base)
            rows.extend(new_rows)
            counts.append(len(new_rows))
        a = (np.array([row for row, __ in rows]).reshape(len(rows), dim))
        b = [rhs for __, rhs in rows]
        bulk = ConvexPolytope.with_halfspaces_many(bases, a, b, counts)
        assert len(bulk) == len(bases)
        start = 0
        for base, count, built in zip(bases, counts, bulk):
            chained = base
            for row, rhs in rows[start:start + count]:
                chained = chained.with_halfspace(row, rhs)
            start += count
            assert_same_rows(built, chained)
            assert built.vertex_hint is None
