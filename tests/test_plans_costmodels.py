"""Unit tests for plan trees and the two cost models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.approx import ApproxCostModel
from repro.cloud import CloudCostModel, ClusterSpec, PricingModel
from repro.errors import PlanError
from repro.plans import (FULL_SCAN, INDEX_SEEK, PARALLEL_HASH_JOIN,
                         SAMPLED_SCAN_10, SINGLE_NODE_HASH_JOIN,
                         JoinPlan, ScanPlan, combine, one_line, render_plan)
from repro.query import QueryGenerator


@pytest.fixture
def query():
    return QueryGenerator(seed=9).generate(num_tables=3, shape="chain",
                                           num_params=1)


def height(plan) -> int:
    """Height of a plan tree (1 for a bare scan)."""
    if isinstance(plan, JoinPlan):
        return 1 + max(height(plan.left), height(plan.right))
    return 1


def scan(table, op=FULL_SCAN):
    return ScanPlan(table=table, operator=op)


class TestPlanTrees:
    def test_tables_and_joins(self):
        p = combine(scan("t0"), combine(scan("t1"), scan("t2"),
                                        SINGLE_NODE_HASH_JOIN),
                    PARALLEL_HASH_JOIN)
        assert p.tables == frozenset(("t0", "t1", "t2"))
        assert sum(isinstance(node, JoinPlan) for node in p.nodes()) == 2
        assert height(p) == 3

    def test_overlap_rejected(self):
        with pytest.raises(PlanError):
            combine(scan("t0"), scan("t0"), SINGLE_NODE_HASH_JOIN)

    def test_signature_distinguishes_operators(self):
        a = combine(scan("a"), scan("b"), SINGLE_NODE_HASH_JOIN)
        b = combine(scan("a"), scan("b"), PARALLEL_HASH_JOIN)
        assert a.signature() != b.signature()
        assert a.signature() == combine(scan("a"), scan("b"),
                                        SINGLE_NODE_HASH_JOIN).signature()

    def test_rendering(self):
        p = combine(scan("a", INDEX_SEEK), scan("b"), PARALLEL_HASH_JOIN)
        text = render_plan(p)
        assert "parallel_hash_join" in text
        assert "index_seek" in text
        line = one_line(p)
        assert "a*" in line and "||" in line


class TestCloudCostModel:
    def test_scan_operator_availability(self, query):
        model = CloudCostModel(query, resolution=2)
        param_table = query.parametric_predicates[0].table
        assert INDEX_SEEK in model.scan_operators(param_table)
        other = next(t for t in query.tables if t != param_table)
        assert model.scan_operators(other) == (FULL_SCAN,)

    def test_full_scan_cost_constant_in_selectivity(self, query):
        model = CloudCostModel(query, resolution=2)
        param_table = query.parametric_predicates[0].table
        polys = model.scan_cost_polynomials(scan(param_table))
        assert polys["time"].degree() == 0

    def test_index_seek_grows_with_selectivity(self, query):
        model = CloudCostModel(query, resolution=2)
        param_table = query.parametric_predicates[0].table
        polys = model.scan_cost_polynomials(scan(param_table, INDEX_SEEK))
        low = polys["time"].evaluate([0.01])
        high = polys["time"].evaluate([0.99])
        assert high > low

    def test_seek_scan_crossover_exists(self, query):
        """The paper's setup: seek wins for low, scan for high selectivity."""
        model = CloudCostModel(query, resolution=2)
        param_table = query.parametric_predicates[0].table
        scan_c = model.scan_cost_polynomials(scan(param_table))["time"]
        seek_c = model.scan_cost_polynomials(
            scan(param_table, INDEX_SEEK))["time"]
        assert seek_c.evaluate([0.01]) < scan_c.evaluate([0.01])
        assert seek_c.evaluate([0.99]) > scan_c.evaluate([0.99])

    def test_seek_without_predicate_rejected(self, query):
        model = CloudCostModel(query, resolution=2)
        other = next(t for t in query.tables
                     if t != query.parametric_predicates[0].table)
        with pytest.raises(PlanError):
            model.scan_cost_polynomials(scan(other, INDEX_SEEK))

    def test_parallel_join_tradeoff(self, query):
        """Parallel join: always higher fees; faster for large inputs."""
        model = CloudCostModel(query, resolution=2)
        left = frozenset((query.tables[0],))
        right = frozenset((query.tables[1],))
        single = model.join_cost_polynomials(left, right,
                                             SINGLE_NODE_HASH_JOIN)
        par = model.join_cost_polynomials(left, right, PARALLEL_HASH_JOIN)
        x = [0.9]
        assert par["fees"].evaluate(x) > single["fees"].evaluate(x)
        x_small = [0.001]
        assert par["fees"].evaluate(x_small) > single["fees"].evaluate(
            x_small)

    def test_parallel_faster_for_huge_inputs(self):
        """With enough data, the parallel join's wall clock wins."""
        gen = QueryGenerator(seed=1)
        query = gen.generate(num_tables=2, shape="chain", num_params=1)
        # Force big tables to get past the startup overhead.
        for t in query.catalog.tables.values():
            object.__setattr__(t, "cardinality", 5_000_000)
        query._cardinality_cache.clear()
        model = CloudCostModel(query, resolution=2)
        left = frozenset((query.tables[0],))
        right = frozenset((query.tables[1],))
        single = model.join_cost_polynomials(left, right,
                                             SINGLE_NODE_HASH_JOIN)
        par = model.join_cost_polynomials(left, right, PARALLEL_HASH_JOIN)
        assert par["time"].evaluate([1.0]) < single["time"].evaluate([1.0])

    def test_plan_cost_polynomials_recursive_sum(self, query):
        model = CloudCostModel(query, resolution=2)
        t0, t1 = query.tables[0], query.tables[1]
        p = combine(scan(t0), scan(t1), SINGLE_NODE_HASH_JOIN)
        total = model.plan_cost_polynomials(p)
        parts = (model.scan_cost_polynomials(scan(t0))["time"]
                 + model.scan_cost_polynomials(scan(t1))["time"]
                 + model.join_cost_polynomials(frozenset((t0,)),
                                               frozenset((t1,)),
                                               SINGLE_NODE_HASH_JOIN)["time"])
        for x in (0.1, 0.5, 0.9):
            assert total["time"].evaluate([x]) == pytest.approx(
                parts.evaluate([x]))

    def test_pwl_matches_polynomials_at_grid_vertices(self, query):
        model = CloudCostModel(query, resolution=2)
        param_table = query.parametric_predicates[0].table
        plan = scan(param_table, INDEX_SEEK)
        pwl = model.scan_cost(plan)
        polys = model.scan_cost_polynomials(plan)
        for x in (0.0, 0.5, 1.0):  # grid vertices with resolution 2
            assert pwl.evaluate([x])["time"] == pytest.approx(
                polys["time"].evaluate([x]), rel=1e-9)

    def test_interpolation_linearity_identity(self, query):
        """Interpolate(sum) == sum(interpolants) on a shared partition."""
        model = CloudCostModel(query, resolution=2)
        t0, t1 = query.tables[0], query.tables[1]
        join_plan = combine(scan(t0), scan(t1), SINGLE_NODE_HASH_JOIN)
        direct = model.plan_cost(join_plan)
        accumulated = (model.scan_cost(scan(t0))
                       .add(model.scan_cost(scan(t1)))
                       .add(model.join_local_cost(
                           frozenset((t0,)), frozenset((t1,)),
                           SINGLE_NODE_HASH_JOIN)))
        for x in np.linspace(0, 1, 11):
            d = direct.evaluate([x])
            a = accumulated.evaluate([x])
            assert d["time"] == pytest.approx(a["time"], rel=1e-9)
            assert d["fees"] == pytest.approx(a["fees"], rel=1e-9)

    def test_pricing_scales_fees_only(self, query):
        cheap = CloudCostModel(query, resolution=1,
                               pricing=PricingModel(usd_per_node_hour=1.0))
        pricey = CloudCostModel(query, resolution=1,
                                pricing=PricingModel(usd_per_node_hour=2.0))
        t0 = query.tables[0]
        c = cheap.scan_cost_polynomials(scan(t0))
        p = pricey.scan_cost_polynomials(scan(t0))
        assert p["fees"].evaluate([0.5]) == pytest.approx(
            2 * c["fees"].evaluate([0.5]))
        assert p["time"].evaluate([0.5]) == pytest.approx(
            c["time"].evaluate([0.5]))

    def test_cluster_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_nodes=1)
        with pytest.raises(ValueError):
            ClusterSpec(process_hours_per_tuple=0.0)
        with pytest.raises(ValueError):
            PricingModel(usd_per_node_hour=0.0)

    def test_vector_cache(self, query):
        model = CloudCostModel(query, resolution=2)
        t0 = query.tables[0]
        assert model.scan_cost(scan(t0)) is model.scan_cost(scan(t0))


class TestApproxCostModel:
    def test_sampled_scan_tradeoff(self, query):
        model = ApproxCostModel(query, resolution=2)
        t0 = query.tables[0]
        exact = model.scan_cost_polynomials(scan(t0))
        sampled = model.scan_cost_polynomials(scan(t0, SAMPLED_SCAN_10))
        assert sampled["time"].evaluate([0.5]) < exact["time"].evaluate(
            [0.5])
        assert sampled["precision_loss"].evaluate([0.5]) > \
            exact["precision_loss"].evaluate([0.5])

    def test_joins_add_no_loss(self, query):
        model = ApproxCostModel(query, resolution=2)
        left = frozenset((query.tables[0],))
        right = frozenset((query.tables[1],))
        polys = model.join_cost_polynomials(left, right,
                                            SINGLE_NODE_HASH_JOIN)
        assert polys["precision_loss"].evaluate([0.3]) == 0.0

    def test_plan_loss_is_max_over_leaves(self, query):
        model = ApproxCostModel(query, resolution=2)
        t0, t1 = query.tables[0], query.tables[1]
        p = combine(scan(t0, SAMPLED_SCAN_10), scan(t1),
                    SINGLE_NODE_HASH_JOIN)
        polys = model.plan_cost_polynomials(p)
        assert polys["precision_loss"].evaluate([0.5]) == pytest.approx(0.9)

    def test_unsupported_join_rejected(self, query):
        model = ApproxCostModel(query, resolution=2)
        with pytest.raises(PlanError):
            model.join_cost_polynomials(frozenset((query.tables[0],)),
                                        frozenset((query.tables[1],)),
                                        PARALLEL_HASH_JOIN)
