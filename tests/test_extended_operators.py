"""Tests for the extended operator set (sort-merge, block nested loop)."""

from __future__ import annotations

import pytest

from repro.cloud import CloudCostModel
from repro.core import PWLRRPA
from repro.plans import BLOCK_NESTED_LOOP_JOIN, SORT_MERGE_JOIN
from repro.query import QueryGenerator

from tests.helpers import dominates, enumerate_all_plans, pwl_plan_cost_at


@pytest.fixture(scope="module")
def query():
    return QueryGenerator(seed=41).generate(3, "chain", 1)


class TestExtendedOperators:
    def test_operator_set_toggles(self, query):
        plain = CloudCostModel(query, resolution=2)
        rich = CloudCostModel(query, resolution=2,
                              extended_operators=True)
        assert len(rich.join_operators()) == len(plain.join_operators()) + 2
        assert SORT_MERGE_JOIN in rich.join_operators()
        assert BLOCK_NESTED_LOOP_JOIN in rich.join_operators()

    def test_bnl_cost_quadratic(self, query):
        model = CloudCostModel(query, resolution=2,
                               extended_operators=True)
        left = frozenset((query.tables[0],))
        right = frozenset((query.tables[1],))
        polys = model.join_cost_polynomials(left, right,
                                            BLOCK_NESTED_LOOP_JOIN)
        # When both inputs carry the same parameter the degree doubles;
        # here only one side is parameterized, so multilinearity holds.
        assert all(max(exps, default=0) <= 1
                   for exps in polys["time"].monomials)

    def test_sort_merge_more_expensive_than_hash(self, query):
        from repro.plans import SINGLE_NODE_HASH_JOIN
        model = CloudCostModel(query, resolution=2,
                               extended_operators=True)
        left = frozenset((query.tables[0],))
        right = frozenset((query.tables[1],))
        hj = model.join_cost_polynomials(left, right,
                                         SINGLE_NODE_HASH_JOIN)
        smj = model.join_cost_polynomials(left, right, SORT_MERGE_JOIN)
        # The log factor makes the sort-merge join dominated here (it
        # exists to enlarge the search space, not to win).
        assert smj["time"].evaluate([0.5]) > hj["time"].evaluate([0.5])

    def test_optimization_still_complete(self, query):
        """Theorem 3 holds over the enlarged operator set too."""
        model = CloudCostModel(query, resolution=2,
                               extended_operators=True)
        result = PWLRRPA().optimize_with_model(query, model)
        all_plans = enumerate_all_plans(query, model)
        assert len(all_plans) > len(
            enumerate_all_plans(query, CloudCostModel(query, resolution=2)))
        kept = [e.cost for e in result.entries]
        import numpy as np
        for plan in all_plans:
            for x in (np.array([v]) for v in (0.1, 0.5, 0.9)):
                cost = pwl_plan_cost_at(model, plan, x)
                assert any(dominates(kc.evaluate(x), cost) for kc in kept)
