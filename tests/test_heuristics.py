"""Tests for the greedy heuristic baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (GreedyJoinOrderer, heuristic_coverage)
from repro.cloud import CloudCostModel
from repro.core import PWLRRPA
from repro.plans import JoinPlan, ScanPlan
from repro.query import QueryGenerator


@pytest.fixture(scope="module")
def query():
    return QueryGenerator(seed=51).generate(4, "chain", 1)


@pytest.fixture(scope="module")
def model(query):
    return CloudCostModel(query, resolution=2)


@pytest.fixture(scope="module")
def greedy(query, model):
    return GreedyJoinOrderer(model).optimize(query)


class TestGreedyJoinOrderer:
    def test_produces_valid_plans(self, query, greedy):
        assert greedy.plans
        for plan in greedy.plans:
            assert plan.tables == query.table_set
            # Left-deep: every right join input is a base-table scan.
            assert all(not isinstance(node, JoinPlan)
                       or isinstance(node.right, ScanPlan)
                       for node in plan.nodes())

    def test_no_duplicate_plans(self, greedy):
        sigs = [p.signature() for p in greedy.plans]
        assert len(sigs) == len(set(sigs))

    def test_polynomial_plan_construction_bound(self, query, model,
                                                greedy):
        """Greedy builds O(profiles * points * n^2 * ops) plans — the
        polynomial scaling that distinguishes it from exhaustive DP."""
        n = query.num_tables
        profiles = 3  # per-metric + combined
        points = 3
        ops = len(model.join_operators())
        bound = profiles * points * (n * n * ops + n)
        assert greedy.plans_created <= bound

    def test_coverage_metric_in_unit_interval(self, query, model, greedy):
        exhaustive = PWLRRPA().optimize_with_model(query, model)
        coverage = heuristic_coverage(
            greedy, exhaustive.entries, model,
            [np.array([v]) for v in (0.1, 0.5, 0.9)])
        assert 0.0 <= coverage <= 1.0

    def test_greedy_never_beats_exhaustive(self, query, model, greedy):
        """Sanity: the heuristic cannot beat the exhaustive optimum."""
        exhaustive = PWLRRPA().optimize_with_model(query, model)
        for x in ([0.2], [0.8]):
            for name in ("time", "fees"):
                best_exhaustive = min(
                    e.cost.evaluate(x)[name] for e in exhaustive.entries)
                best_greedy = min(
                    model.plan_cost(p).evaluate(x)[name]
                    for p in greedy.plans)
                assert best_greedy >= best_exhaustive - 1e-9
