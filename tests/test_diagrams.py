"""Tests for Pareto plan diagrams."""

from __future__ import annotations

import pytest

from repro.analysis import compute_diagram, render_diagram
from repro.api import optimize_query
from repro.query import QueryGenerator


@pytest.fixture(scope="module")
def result():
    query = QueryGenerator(seed=81).generate(3, "chain", 1)
    return optimize_query(query, "cloud", resolution=2)


@pytest.fixture(scope="module")
def diagram(result):
    return compute_diagram(result, points_per_axis=31)


class TestDiagramComputation:
    def test_every_point_labeled_nonempty(self, diagram):
        assert all(label for label in diagram.labels)

    def test_labels_reference_known_plans(self, diagram):
        n = len(diagram.plans)
        for label in diagram.labels:
            assert all(0 <= i < n for i in label)

    def test_every_kept_plan_appears_somewhere(self, result, diagram):
        appearing = set().union(*diagram.labels)
        # Every kept plan should be Pareto-optimal at some sampled point
        # (RRPA discards plans with empty relevance regions; up to
        # sampling granularity the kept plans show up).
        assert len(appearing) >= len(result.entries) // 2

    def test_distinct_regions_cover_labels(self, diagram):
        regions = diagram.distinct_regions()
        assert set(diagram.labels) == set(regions)

    def test_region_masks_consistent(self, diagram):
        for idx in range(len(diagram.plans)):
            mask = diagram.region_of_plan(idx)
            assert mask.shape[0] == len(diagram.labels)
            assert mask.sum() == sum(1 for label in diagram.labels
                                     if idx in label)

    def test_labels_agree_with_frontier(self, result, diagram):
        for k in (0, len(diagram.labels) // 2, len(diagram.labels) - 1):
            x = diagram.points[k]
            frontier_sigs = {p.signature()
                             for p, __ in result.frontier_at(x)}
            label_sigs = {diagram.plans[i].signature()
                          for i in diagram.labels[k]}
            assert label_sigs == frontier_sigs


class TestRendering:
    def test_render_1d(self, diagram):
        text = render_diagram(diagram)
        assert "x0: 0 |" in text
        assert "legend" in text

    def test_render_2d(self):
        query = QueryGenerator(seed=82).generate(2, "chain", 2)
        result = optimize_query(query, "cloud", resolution=1)
        diag = compute_diagram(result, points_per_axis=9)
        text = render_diagram(diag)
        assert "(x0 rightwards, x1 upwards)" in text

    def test_interval_check_requires_1d(self):
        query = QueryGenerator(seed=83).generate(2, "chain", 2)
        result = optimize_query(query, "cloud", resolution=1)
        diag = compute_diagram(result, points_per_axis=5)
        with pytest.raises(ValueError):
            diag.plan_region_is_interval(0)

    def test_interval_check_1d(self, diagram):
        # The check must run for every plan without raising; at least the
        # globally-relevant plans have interval regions.
        values = [diagram.plan_region_is_interval(i)
                  for i in range(len(diagram.plans))]
        assert any(values)
