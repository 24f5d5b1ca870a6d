"""Tests for alpha-dominance (approximate) pruning.

The paper's companion work (citation [31]) trades plan-set size against a
bounded cost regret by pruning plans that are within a ``(1 + alpha)``
factor of an alternative on every metric.  These tests check the
dominance-region computation with relaxation and the end-to-end
guarantees: smaller plan sets, bounded regret, exactness at alpha = 0.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud import CloudCostModel
from repro.core import PWLRRPA, PWLRRPAOptions
from repro.cost import SharedPartition, ParamPolynomial
from repro.geometry import ConvexPolytope
from repro.query import QueryGenerator

from tests.helpers import (constant_cost, enumerate_all_plans,
                           pwl_plan_cost_at)


class TestAlphaDominanceRegions:
    def test_relaxed_region_grows(self, solver):
        part = SharedPartition([0.0], [1.0], 2)
        x = ParamPolynomial.variable(1, 0)
        # c1 = 1.05 everywhere; c2 = 1.0 everywhere: c2 never dominated
        # exactly, but alpha = 0.1 makes c1 alpha-dominate c2 everywhere.
        c1 = part.vector_from_polynomials(
            {"time": x * 0 + 1.05, "fees": x * 0 + 1.05})
        c2 = part.vector_from_polynomials(
            {"time": x * 0 + 1.0, "fees": x * 0 + 1.0})
        exact = c1.dominance_polytopes(c2, solver, relax=0.0)
        relaxed = c1.dominance_polytopes(c2, solver, relax=0.1)
        assert not exact
        assert relaxed
        for v in np.linspace(0, 1, 11):
            assert any(p.contains_point([v]) for p in relaxed)

    def test_zero_relax_is_exact(self, solver):
        part = SharedPartition([0.0], [1.0], 2)
        x = ParamPolynomial.variable(1, 0)
        c1 = part.vector_from_polynomials(
            {"time": x * 2.0, "fees": x * 0 + 3.0})
        c2 = part.vector_from_polynomials(
            {"time": x + 0.5, "fees": x * 0 + 2.0})
        a = c2.dominance_polytopes(c1, solver)
        b = c2.dominance_polytopes(c1, solver, relax=0.0)
        for v in np.linspace(0, 1, 21):
            assert (any(p.contains_point([v]) for p in a)
                    == any(p.contains_point([v]) for p in b))

    def test_negative_relax_rejected(self, solver):
        space = ConvexPolytope.unit_box(1)
        c = constant_cost(space, {"m": 1.0})
        with pytest.raises(ValueError):
            c.dominance_polytopes(c, solver, relax=-0.1)

    def test_general_path_relaxation(self, solver):
        space = ConvexPolytope.unit_box(1)
        c1 = constant_cost(space, {"m1": 1.2, "m2": 1.2})
        c2 = constant_cost(space, {"m1": 1.0, "m2": 1.0})
        assert not c1.dominance_polytopes(c2, solver, relax=0.1)
        assert c1.dominance_polytopes(c2, solver, relax=0.25)


class TestApproximateOptimization:
    @pytest.fixture(scope="class")
    def query(self):
        return QueryGenerator(seed=101).generate(4, "chain", 1)

    @pytest.fixture(scope="class")
    def model(self, query):
        return CloudCostModel(query, resolution=2)

    @pytest.fixture(scope="class")
    def exact(self, query, model):
        return PWLRRPA().optimize_with_model(query, model)

    @pytest.fixture(scope="class")
    def approx(self, query, model):
        options = PWLRRPAOptions(approximation_factor=0.25)
        return PWLRRPA(options=options).optimize_with_model(query, model)

    def test_plan_set_shrinks(self, exact, approx):
        assert len(approx.entries) < len(exact.entries)

    def test_regret_bounded(self, query, model, exact, approx):
        """Per-point regret of the approximate set vs. the exact set is
        bounded by (1 + alpha)^(DP levels)."""
        alpha = 0.25
        levels = query.num_tables  # pruning chains span the DP depth
        bound = (1 + alpha) ** levels
        for x in (np.array([v]) for v in np.linspace(0.05, 0.95, 9)):
            for metric in ("time", "fees"):
                best_exact = min(e.cost.evaluate(x)[metric]
                                 for e in exact.entries)
                best_approx = min(e.cost.evaluate(x)[metric]
                                  for e in approx.entries)
                assert best_approx <= best_exact * bound + 1e-9

    def test_approx_set_alpha_covers_all_plans(self, query, model,
                                               approx):
        """Every plan is (1+alpha)^levels-covered at every sample point."""
        alpha = 0.25
        bound = (1 + alpha) ** query.num_tables
        all_plans = enumerate_all_plans(query, model)
        for plan in all_plans[::7]:  # sample the space, keep test fast
            for x in (np.array([v]) for v in (0.1, 0.5, 0.9)):
                cost = pwl_plan_cost_at(model, plan, x)
                assert any(
                    all(e.cost.evaluate(x)[m] <= cost[m] * bound + 1e-9
                        for m in cost)
                    for e in approx.entries)

    def test_invalid_option_rejected(self):
        with pytest.raises(ValueError):
            PWLRRPAOptions(approximation_factor=-0.5)
