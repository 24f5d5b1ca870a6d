"""End-to-end scenario tests: Scenario 2, the bench harness, definitions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.approx import ApproxCostModel
from repro.bench import (QUICK, SweepPoint, SweepProfile, format_table,
                         figure12_report, queries_for_point, run_point,
                         run_query_measurement, run_sweep, sweep_points)
from repro.core import PWLRRPA, PlanSelector
from repro.cost import MultiObjectivePWL, PiecewiseLinearFunction
from repro.geometry import ConvexPolytope
from repro.query import QueryGenerator


class TestScenario2EndToEnd:
    @pytest.fixture(scope="class")
    def result(self):
        query = QueryGenerator(seed=21).generate(3, "chain", 1)
        optimizer = PWLRRPA(
            cost_model_factory=lambda q: ApproxCostModel(q, resolution=2))
        return optimizer.optimize(query)

    def test_frontier_has_precision_tradeoff(self, result):
        """The Pareto set must offer exact and approximate options."""
        losses = set()
        for entry in result.entries:
            losses.add(round(
                entry.cost.evaluate([0.5])["precision_loss"], 3))
        assert 0.0 in losses          # an exact plan survives
        assert any(v > 0 for v in losses)  # a sampled plan survives

    def test_sampled_plans_faster(self, result):
        x = [0.5]
        exact = [e for e in result.entries
                 if e.cost.evaluate(x)["precision_loss"] < 1e-9]
        sampled = [e for e in result.entries
                   if e.cost.evaluate(x)["precision_loss"] > 0.5]
        assert exact and sampled
        fastest_exact = min(e.cost.evaluate(x)["time"] for e in exact)
        fastest_sampled = min(e.cost.evaluate(x)["time"] for e in sampled)
        assert fastest_sampled < fastest_exact

    def test_policy_selection(self, result):
        selector = PlanSelector(result)
        x = [0.4]
        exact = selector.by_bounded_metric(x, minimize="time",
                                           bounds={"precision_loss": 0.0})
        assert exact.cost["precision_loss"] == pytest.approx(0.0)
        fast = selector.by_weighted_sum(x, {"time": 1.0})
        assert fast.cost["time"] <= exact.cost["time"] + 1e-12

    def test_max_accumulation_correct(self, result):
        """Precision loss of any plan equals the max over its scans."""
        x = [0.5]
        for entry in result.entries:
            rates = [node.operator.sampling_rate
                     for node in entry.plan.nodes()
                     if hasattr(node, "table")]
            expected = max(1.0 - r for r in rates)
            got = entry.cost.evaluate(x)["precision_loss"]
            assert got == pytest.approx(expected, abs=1e-9)


class TestBenchHarness:
    def test_sweep_points_expand_profile(self):
        points = sweep_points(QUICK, "chain")
        assert len(points) == len(QUICK.table_counts_1p) + len(
            QUICK.table_counts_2p)
        assert all(p.shape == "chain" for p in points)

    def test_queries_deterministic(self):
        point = SweepPoint(num_tables=3, shape="chain", num_params=1)
        a = queries_for_point(point, 2)
        b = queries_for_point(point, 2)
        assert [q.catalog.table(t).cardinality
                for q in a for t in q.tables] == \
            [q.catalog.table(t).cardinality for q in b for t in q.tables]

    def test_measurement_and_aggregation(self):
        point = SweepPoint(num_tables=2, shape="chain", num_params=1)
        query = queries_for_point(point, 1)[0]
        m = run_query_measurement(query, point)
        assert m.seconds > 0
        assert m.plans_created >= m.pareto_plans
        agg = run_point(point, queries_per_point=2)
        assert agg.samples == 2
        assert agg.median_plans > 0

    def test_sweep_runs_one_point_per_profile_entry(self):
        profile = SweepProfile(name="tiny", table_counts_1p=(2, 3),
                               table_counts_2p=(2,), queries_per_point=1)
        points = run_sweep(profile, "star")
        assert [(p.point.num_tables, p.point.num_params) for p in points] \
            == [(2, 1), (3, 1), (2, 2)]
        assert all(p.samples == 1 for p in points)

    def test_reporting_renders(self):
        point = SweepPoint(num_tables=2, shape="chain", num_params=1)
        agg = run_point(point, queries_per_point=1)
        table = format_table([agg])
        assert "tables" in table and "chain" in table
        report = figure12_report([agg], [agg])
        assert "Figure 12" in report
        assert "Star queries" in report


class TestDefinitionsExample2:
    """Section 2 definitions on the paper's Example 2 instance."""

    def setup_method(self):
        space = ConvexPolytope.unit_box(1)
        self.space = space
        self.p1 = MultiObjectivePWL({
            "time": PiecewiseLinearFunction.affine(space, [2.0], 0.0),
            "fees": PiecewiseLinearFunction.constant(space, 3.0)})
        self.p2 = MultiObjectivePWL({
            "time": PiecewiseLinearFunction.affine(space, [1.0], 0.5),
            "fees": PiecewiseLinearFunction.constant(space, 2.0)})
        self.p3 = MultiObjectivePWL({
            "time": PiecewiseLinearFunction.affine(space, [1.0], 0.5),
            "fees": PiecewiseLinearFunction.constant(space, 2.0)})

    def test_mutual_domination_of_equal_plans(self):
        for x in np.linspace(0, 1, 11):
            assert self.p2.dominates_at(self.p3, [x])
            assert self.p3.dominates_at(self.p2, [x])
            assert not self.p2.strictly_dominates_at(self.p3, [x])

    def test_p2_strictly_dominates_p1_above_half(self):
        assert self.p2.strictly_dominates_at(self.p1, [0.8])
        assert not self.p2.strictly_dominates_at(self.p1, [0.3])

    def test_pareto_region_of_p1_is_low_interval(self):
        """pReg(p1) is the low-selectivity interval (the paper states
        [0, 0.5]; at exactly 0.5 the plans tie on time while p2 wins on
        fees, which is strict domination under the Section 2 definition,
        so the strictly-undominated region is [0, 0.5))."""
        for x in np.linspace(0, 1, 101):
            strictly = (self.p2.strictly_dominates_at(self.p1, [x])
                        or self.p3.strictly_dominates_at(self.p1, [x]))
            assert strictly == (x >= 0.5 - 1e-12)

    def test_both_pairs_form_pps(self):
        """{p1, p2} and {p1, p3} are Pareto plan sets."""
        plans = {"p1": self.p1, "p2": self.p2, "p3": self.p3}
        for pps in (("p1", "p2"), ("p1", "p3")):
            for other in plans.values():
                for x in np.linspace(0, 1, 21):
                    assert any(plans[name].dominates_at(other, [x])
                               for name in pps)
