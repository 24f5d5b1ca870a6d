"""Property-based tests for cost functions and dominance."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cost import (MultiObjectivePWL, ParamPolynomial, SharedPartition)
from repro.geometry import ConvexPolytope
from repro.lp import LinearProgramSolver, LPStats

from tests.helpers import constant_cost

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False,
                   allow_infinity=False)
positive = st.floats(min_value=0.0, max_value=5.0, allow_nan=False,
                     allow_infinity=False)


@st.composite
def polynomials_1d(draw):
    """Random polynomial c0 + c1*x + c2*x^2 over one parameter."""
    c0 = draw(finite)
    c1 = draw(finite)
    c2 = draw(finite)
    x = ParamPolynomial.variable(1, 0)
    return x * x * c2 + x * c1 + c0


class TestPolynomialAlgebra:
    @settings(max_examples=50)
    @given(polynomials_1d(), polynomials_1d(),
           st.floats(0.0, 1.0, allow_nan=False))
    def test_addition_pointwise(self, p, q, x):
        expected = p.evaluate([x]) + q.evaluate([x])
        assert abs((p + q).evaluate([x]) - expected) < 1e-9 * (
            1 + abs(expected))

    @settings(max_examples=50)
    @given(polynomials_1d(), polynomials_1d(),
           st.floats(0.0, 1.0, allow_nan=False))
    def test_multiplication_pointwise(self, p, q, x):
        expected = p.evaluate([x]) * q.evaluate([x])
        assert (p * q).evaluate([x]) == np.float64(expected) or \
            abs((p * q).evaluate([x]) - expected) < 1e-6 * (
                1 + abs(expected))

    @settings(max_examples=30)
    @given(polynomials_1d())
    def test_subtraction_gives_zero(self, p):
        assert (p - p).monomials == {}

    @settings(max_examples=30)
    @given(polynomials_1d(), st.floats(0.0, 1.0, allow_nan=False))
    def test_negation(self, p, x):
        assert (-p).evaluate([x]) == -p.evaluate([x])


class TestInterpolationProperties:
    @settings(max_examples=25, deadline=None)
    @given(polynomials_1d(), st.integers(min_value=1, max_value=5))
    def test_interpolation_exact_at_grid_vertices(self, poly, resolution):
        part = SharedPartition([0.0], [1.0], resolution)
        f = part.from_polynomial(poly)
        for k in range(resolution + 1):
            x = k / resolution
            assert abs(f.evaluate([x]) - poly.evaluate([x])) < 1e-7

    @settings(max_examples=25, deadline=None)
    @given(polynomials_1d(), polynomials_1d(),
           st.floats(0.0, 1.0, allow_nan=False))
    def test_interpolation_linear_in_function(self, p, q, x):
        """interp(p) + interp(q) == interp(p + q) on a shared partition."""
        part = SharedPartition([0.0], [1.0], 3)
        lhs = part.from_polynomial(p).add(part.from_polynomial(q))
        rhs = part.from_polynomial(p + q)
        assert abs(lhs.evaluate([x]) - rhs.evaluate([x])) < 1e-7


class TestDominanceProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(finite, min_size=4, max_size=4),
           st.lists(finite, min_size=4, max_size=4))
    def test_dominance_region_matches_pointwise(self, coeffs1, coeffs2):
        solver = LinearProgramSolver(stats=LPStats())
        space = ConvexPolytope.unit_box(1)
        c1 = MultiObjectivePWL.affine(
            space, {"m1": [coeffs1[0]], "m2": [coeffs1[1]]},
            {"m1": coeffs1[2], "m2": coeffs1[3]})
        c2 = MultiObjectivePWL.affine(
            space, {"m1": [coeffs2[0]], "m2": [coeffs2[1]]},
            {"m1": coeffs2[2], "m2": coeffs2[3]})
        polys = c1.dominance_polytopes(c2, solver)
        for x in np.linspace(0, 1, 21):
            inside = any(p.contains_point([x], tol=1e-7) for p in polys)
            pointwise = c1.dominates_at(c2, [x], tol=1e-7)
            if inside != pointwise:
                # Allow disagreement only near dominance boundaries.
                margin = min(
                    abs(c1.evaluate([x])[m] - c2.evaluate([x])[m])
                    for m in ("m1", "m2"))
                assert margin < 1e-4

    @settings(max_examples=20, deadline=None)
    @given(st.lists(finite, min_size=4, max_size=4))
    def test_self_dominance_total(self, coeffs):
        solver = LinearProgramSolver(stats=LPStats())
        space = ConvexPolytope.unit_box(1)
        c = MultiObjectivePWL.affine(
            space, {"m1": [coeffs[0]], "m2": [coeffs[1]]},
            {"m1": coeffs[2], "m2": coeffs[3]})
        polys = c.dominance_polytopes(c, solver)
        for x in np.linspace(0.05, 0.95, 10):
            assert any(p.contains_point([x]) for p in polys)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(positive, min_size=2, max_size=2),
           st.lists(positive, min_size=2, max_size=2),
           st.lists(positive, min_size=2, max_size=2))
    def test_dominance_transitive_pointwise(self, a, b, c):
        space = ConvexPolytope.unit_box(1)
        ca = constant_cost(space, {"m1": a[0], "m2": a[1]})
        cb = constant_cost(space, {"m1": b[0], "m2": b[1]})
        cc = constant_cost(space, {"m1": c[0], "m2": c[1]})
        x = [0.5]
        if ca.dominates_at(cb, x) and cb.dominates_at(cc, x):
            assert ca.dominates_at(cc, x, tol=1e-6)
