"""Unit tests for the cost layer: polynomials, PWL functions, vectors."""

from __future__ import annotations

import numpy as np
import pytest

from functools import reduce

from repro.cost import (CLOUD_METRICS, CostMetric, MultiObjectivePWL,
                        ParamPolynomial, PiecewiseLinearFunction,
                        SharedPartition, accumulator_map)
from repro.errors import DimensionMismatchError, EmptyRegionError
from repro.geometry import ConvexPolytope

from tests.helpers import constant_cost


def is_multilinear(poly: ParamPolynomial) -> bool:
    """Every parameter has degree at most one in every monomial."""
    return all(max(exps, default=0) <= 1 for exps in poly.monomials)


def max_error(poly: ParamPolynomial, approx: PiecewiseLinearFunction,
              samples_per_axis: int = 7) -> float:
    """Largest absolute error of ``approx`` on a grid over the unit box."""
    axes = [np.linspace(0.0, 1.0, samples_per_axis)] * poly.num_params
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.reshape(-1) for m in mesh], axis=1)
    return max(abs(poly.evaluate(x) - approx.evaluate(x)) for x in points)


class TestParamPolynomial:
    def test_constant_and_variable(self):
        c = ParamPolynomial.constant(2, 5.0)
        x0 = ParamPolynomial.variable(2, 0)
        assert c.evaluate([0.3, 0.7]) == pytest.approx(5.0)
        assert x0.evaluate([0.3, 0.7]) == pytest.approx(0.3)

    def test_arithmetic(self):
        x0 = ParamPolynomial.variable(2, 0)
        x1 = ParamPolynomial.variable(2, 1)
        poly = (x0 * x1 * 3.0) + x0 - 2.0
        assert poly.evaluate([0.5, 0.4]) == pytest.approx(
            3 * 0.5 * 0.4 + 0.5 - 2.0)

    def test_degree_and_affine(self):
        x0 = ParamPolynomial.variable(1, 0)
        assert (x0 * x0).degree() == 2
        assert not (x0 * x0).is_affine()
        assert (x0 * 2 + 1).is_affine()
        w, b = (x0 * 2 + 1).affine_parts()
        assert w == pytest.approx([2.0])
        assert b == pytest.approx(1.0)

    def test_affine_parts_rejects_nonlinear(self):
        x0 = ParamPolynomial.variable(1, 0)
        with pytest.raises(ValueError):
            (x0 * x0).affine_parts()

    def test_multilinearity_of_cardinalities(self):
        x0 = ParamPolynomial.variable(2, 0)
        x1 = ParamPolynomial.variable(2, 1)
        card = x0 * x1 * 1000.0
        assert is_multilinear(card)
        assert not is_multilinear(x0 * x0)

    def test_zero_coefficients_dropped(self):
        x0 = ParamPolynomial.variable(1, 0)
        zero = x0 - x0
        assert zero.monomials == {}
        assert zero.degree() == 0

    def test_mixed_params_rejected(self):
        with pytest.raises(ValueError):
            ParamPolynomial.variable(1, 0) + ParamPolynomial.variable(2, 0)

    def test_poly_sum(self):
        polys = [ParamPolynomial.constant(1, v) for v in (1.0, 2.0, 3.0)]
        assert sum(polys[1:], polys[0]).evaluate([0.0]) == pytest.approx(6.0)

    def test_equality_and_hash(self):
        a = ParamPolynomial.variable(1, 0) * 2 + 1
        b = ParamPolynomial.variable(1, 0) * 2 + 1
        assert a == b
        assert hash(a) == hash(b)


class TestMetrics:
    def test_invalid_accumulator(self):
        with pytest.raises(ValueError):
            CostMetric(name="x", accumulator="median")

    def test_accumulator_map(self):
        assert accumulator_map(CLOUD_METRICS) == {"time": "sum",
                                                  "fees": "sum"}


class TestPWLFunction:
    def test_affine_evaluation(self):
        space = ConvexPolytope.unit_box(2)
        f = PiecewiseLinearFunction.affine(space, [1.0, 2.0], 0.5)
        assert f.evaluate([0.1, 0.2]) == pytest.approx(0.1 + 0.4 + 0.5)

    def test_outside_domain_raises(self):
        f = PiecewiseLinearFunction.constant(ConvexPolytope.unit_box(1), 1.0)
        with pytest.raises(EmptyRegionError):
            f.evaluate([2.0])

    def test_aligned_addition_no_lp(self, lp_stats, solver):
        part = SharedPartition([0.0], [1.0], 3)
        f = part.from_polynomial(ParamPolynomial.variable(1, 0))
        g = part.from_polynomial(ParamPolynomial.constant(1, 2.0))
        base = lp_stats.solved
        h = f.add(g)
        assert lp_stats.solved == base
        assert h.evaluate([0.5]) == pytest.approx(2.5)

    def test_unaligned_addition_requires_solver(self):
        a = PiecewiseLinearFunction.constant(ConvexPolytope.unit_box(1), 1.0)
        b = PiecewiseLinearFunction.affine(ConvexPolytope.unit_box(1),
                                           [1.0], 0.0)
        with pytest.raises(ValueError):
            a.add(b)

    def test_unaligned_addition(self, solver):
        a = PiecewiseLinearFunction.constant(ConvexPolytope.unit_box(1), 1.0)
        b = PiecewiseLinearFunction.affine(ConvexPolytope.unit_box(1),
                                           [2.0], 0.0)
        c = a.add(b, solver)
        assert c.evaluate([0.25]) == pytest.approx(1.5)

    def test_maximum(self, solver):
        space = ConvexPolytope.unit_box(1)
        f = PiecewiseLinearFunction.affine(space, [1.0], 0.0)   # x
        g = PiecewiseLinearFunction.affine(space, [-1.0], 1.0)  # 1 - x
        h = f.maximum(g, solver)
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert h.evaluate([x]) == pytest.approx(max(x, 1 - x))

    def test_minimum(self, solver):
        space = ConvexPolytope.unit_box(1)
        f = PiecewiseLinearFunction.affine(space, [1.0], 0.0)
        g = PiecewiseLinearFunction.affine(space, [-1.0], 1.0)
        h = f.minimum(g, solver)
        for x in (0.0, 0.3, 0.5, 0.9):
            assert h.evaluate([x]) == pytest.approx(min(x, 1 - x))

    def test_pwl_sum(self, solver):
        space = ConvexPolytope.unit_box(1)
        fs = [PiecewiseLinearFunction.constant(space, v)
              for v in (1.0, 2.0, 3.0)]
        total = reduce(lambda total, f: total.add(f, solver), fs)
        assert total.evaluate([0.5]) == pytest.approx(6.0)

    def test_needs_at_least_one_piece(self):
        with pytest.raises(ValueError):
            PiecewiseLinearFunction(1, [])


class TestSharedPartition:
    def test_region_count(self):
        part = SharedPartition([0.0, 0.0], [1.0, 1.0], 3)
        assert len(part.regions) == 3 * 3 * 2  # cells x 2 triangles

    def test_interpolation_exact_at_vertices(self):
        part = SharedPartition([0.0, 0.0], [1.0, 1.0], 2)
        poly = (ParamPolynomial.variable(2, 0)
                * ParamPolynomial.variable(2, 1) * 10.0)
        f = part.from_polynomial(poly)
        for simplex in part.simplices:
            for v in simplex.vertices:
                assert f.evaluate(v) == pytest.approx(poly.evaluate(v),
                                                      abs=1e-9)

    def test_affine_conversion_exact_everywhere(self):
        part = SharedPartition([0.0], [1.0], 4)
        poly = ParamPolynomial.variable(1, 0) * 3.0 + 2.0
        f = part.from_polynomial(poly)
        for x in np.linspace(0, 1, 17):
            assert f.evaluate([x]) == pytest.approx(poly.evaluate([x]))

    def test_error_shrinks_with_resolution(self):
        poly = (ParamPolynomial.variable(2, 0)
                * ParamPolynomial.variable(2, 1))
        coarse = max_error(
            poly, SharedPartition([0, 0], [1, 1], 1).from_polynomial(poly))
        fine = max_error(
            poly, SharedPartition([0, 0], [1, 1], 4).from_polynomial(poly))
        assert fine < coarse

    def test_cell_tags_and_hints_attached(self):
        part = SharedPartition([0.0], [1.0], 2)
        for idx, region in enumerate(part.regions):
            assert region.cell_tag == (part.token, idx)
            assert region.vertex_hint is not None

    def test_dimension_mismatch(self):
        part = SharedPartition([0.0], [1.0], 2)
        with pytest.raises(ValueError):
            part.from_polynomial(ParamPolynomial.variable(2, 0))


class TestMultiObjectivePWL:
    def make_pair(self, part):
        c1 = part.vector_from_polynomials({
            "time": ParamPolynomial.variable(1, 0) * 2.0,       # 2x
            "fees": ParamPolynomial.constant(1, 3.0)})
        c2 = part.vector_from_polynomials({
            "time": ParamPolynomial.variable(1, 0) + 0.5,        # x + 0.5
            "fees": ParamPolynomial.constant(1, 2.0)})
        return c1, c2

    def test_example2_pointwise(self):
        """Example 2 of the paper: p2 strictly dominates p1 for x > 0.5."""
        part = SharedPartition([0.0], [1.0], 2)
        p1, p2 = self.make_pair(part)
        assert p2.strictly_dominates_at(p1, [0.8])
        assert not p2.dominates_at(p1, [0.3])
        assert not p1.dominates_at(p2, [0.3])  # p1 loses on fees

    def test_example2_dominance_region(self, solver):
        part = SharedPartition([0.0], [1.0], 2)
        p1, p2 = self.make_pair(part)
        polys = p2.dominance_polytopes(p1, solver)
        assert polys
        xs = np.linspace(0, 1, 101)
        for x in xs:
            inside = any(p.contains_point([x]) for p in polys)
            assert inside == (x >= 0.5 - 1e-9)

    def test_self_dominance_everywhere(self, solver):
        part = SharedPartition([0.0], [1.0], 2)
        p1, __ = self.make_pair(part)
        polys = p1.dominance_polytopes(p1, solver)
        xs = np.linspace(0, 1, 21)
        for x in xs:
            assert any(p.contains_point([x]) for p in polys)

    def test_general_path_matches_pointwise(self, solver):
        space = ConvexPolytope.unit_box(1)
        a = MultiObjectivePWL.affine(space, {"m1": [1.0], "m2": [0.0]},
                                     {"m1": 0.0, "m2": 1.0})
        b = MultiObjectivePWL.affine(space, {"m1": [0.0], "m2": [1.0]},
                                     {"m1": 0.5, "m2": 0.0})
        polys = a.dominance_polytopes(b, solver)
        for x in np.linspace(0, 1, 51):
            inside = any(p.contains_point([x]) for p in polys)
            expected = a.dominates_at(b, [x])
            if abs(x - 0.5) < 0.02 or abs(x - 1.0) < 0.02:
                continue  # boundary tolerance
            assert inside == expected

    def test_add_aligned(self):
        part = SharedPartition([0.0], [1.0], 2)
        c1, c2 = self.make_pair(part)
        total = c1.add(c2)
        values = total.evaluate([0.5])
        assert values["time"] == pytest.approx(1.0 + 1.0)
        assert values["fees"] == pytest.approx(5.0)

    def test_add_with_max_accumulator(self, solver):
        part = SharedPartition([0.0], [1.0], 2)
        c1, c2 = self.make_pair(part)
        total = c1.add(c2, solver, accumulators={"time": "sum",
                                                 "fees": "max"})
        values = total.evaluate([0.25])
        assert values["fees"] == pytest.approx(3.0)  # max(3, 2)

    def test_metric_mismatch_rejected(self, solver):
        space = ConvexPolytope.unit_box(1)
        a = constant_cost(space, {"m1": 1.0})
        b = constant_cost(space, {"m2": 1.0})
        with pytest.raises(ValueError):
            a.add(b, solver)
        with pytest.raises(ValueError):
            a.dominance_polytopes(b, solver)

    def test_mixed_dims_rejected(self):
        f1 = PiecewiseLinearFunction.constant(ConvexPolytope.unit_box(1), 1.0)
        f2 = PiecewiseLinearFunction.constant(ConvexPolytope.unit_box(2), 1.0)
        with pytest.raises(DimensionMismatchError):
            MultiObjectivePWL({"a": f1, "b": f2})

    def test_accumulate_cost_helper(self, solver):
        part = SharedPartition([0.0], [1.0], 2)
        c1, c2 = self.make_pair(part)
        op = constant_cost(part.space, {"time": 0.1, "fees": 0.2})
        # Operator cost is not on the partition: general path exercised.
        # AccumulateCost (Algorithm 3) as PWLBackend.accumulate runs it.
        total = reduce(lambda total, sub: total.add(sub, solver),
                       [c1, c2], op)
        values = total.evaluate([0.5])
        assert values["time"] == pytest.approx(0.1 + 1.0 + 1.0)
        assert values["fees"] == pytest.approx(0.2 + 3.0 + 2.0)
