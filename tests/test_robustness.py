"""Robustness and failure-injection tests.

The pruning logic must stay sound under degenerate inputs: exact cost
ties, plans identical everywhere, solver failures, and near-boundary
geometry.  Algorithm 1's ordering (prune the new plan first, only then
reduce incumbents) is what prevents mutually-dominating plans from
eliminating each other; these tests pin that behaviour down.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud import CloudCostModel
from repro.core import PWLRRPA, RRPA, GridBackend, make_grid
from repro.cost import SharedPartition, ParamPolynomial
from repro.errors import SolverError
from repro.geometry import ConvexPolytope, RelevanceRegion
from repro.lp import LinearProgramSolver, LPStats
from repro.plans import ScanOperator
from repro.query import QueryGenerator


class TiedCostModel:
    """Cost model where every operator has identical constant cost.

    Every plan for a table set then ties exactly; RRPA must keep exactly
    one plan per table set (the first), never zero.
    """

    from repro.cost import CLOUD_METRICS as metrics

    def __init__(self, query, partition=None):
        self.query = query
        self.partition = partition or SharedPartition([0.0], [1.0], 2)

    def scan_operators(self, table):
        return (ScanOperator(name="full_scan"),
                ScanOperator(name="other_scan"))

    def join_operators(self):
        from repro.plans import CLOUD_JOIN_OPERATORS
        return CLOUD_JOIN_OPERATORS

    def _unit(self):
        one = ParamPolynomial.constant(1, 1.0)
        return self.partition.vector_from_polynomials(
            {"time": one, "fees": one})

    def scan_cost(self, plan):
        return self._unit()

    def join_local_cost(self, left, right, operator):
        return self._unit()


class TestExactTies:
    def test_single_plan_survives_per_tie_group(self):
        query = QueryGenerator(seed=91).generate(3, "chain", 1)
        model = TiedCostModel(query)
        result = PWLRRPA().optimize_with_model(query, model)
        # All plans tie: exactly one survives (mutual domination prunes
        # newcomers, never the incumbent).
        assert len(result.entries) == 1

    def test_grid_backend_ties(self):
        query = QueryGenerator(seed=92).generate(3, "chain", 1)
        cloud = CloudCostModel(query, resolution=2)

        class TiedPolyModel:
            metrics = cloud.metrics

            def scan_operators(self, table):
                return cloud.scan_operators(table)

            def join_operators(self):
                return cloud.join_operators()

            def scan_cost_polynomials(self, plan):
                one = ParamPolynomial.constant(1, 1.0)
                return {"time": one, "fees": one}

            def join_cost_polynomials(self, left, right, operator):
                one = ParamPolynomial.constant(1, 1.0)
                return {"time": one, "fees": one}

        backend = GridBackend(query, TiedPolyModel(),
                              points=make_grid(1, 5))
        result = RRPA(backend).optimize(query)
        assert len(result.entries) == 1


class TestSolverFailures:
    def test_solver_error_propagates(self, monkeypatch):
        solver = LinearProgramSolver(stats=LPStats(), backend="scipy")

        def boom(*args, **kwargs):
            raise SolverError("injected failure")

        monkeypatch.setattr(solver, "_solve_scipy", boom)
        poly = ConvexPolytope.unit_box(2)
        with pytest.raises(SolverError):
            poly.is_empty(solver)

    def test_hybrid_falls_back_to_scipy(self, monkeypatch):
        solver = LinearProgramSolver(stats=LPStats(), backend="hybrid")

        def broken_simplex(*args, **kwargs):
            raise SolverError("injected simplex failure")

        monkeypatch.setattr(solver, "_solve_simplex", broken_simplex)
        # Three variables: LPs with at most two are answered in closed
        # form before the simplex runs.
        result = solver.solve([1.0, 1.0, 1.0], -np.eye(3), [-2.0, -3.0, -4.0])
        assert result.is_optimal
        assert result.x == pytest.approx([2.0, 3.0, 4.0])
        assert result.objective == pytest.approx(9.0)


class TestNearBoundaryGeometry:
    def test_sliver_region_treated_as_empty(self, solver):
        """A relevance region reduced to a measure-zero sliver counts as
        empty (the documented tolerance contract)."""
        rr = RelevanceRegion(ConvexPolytope.unit_box(1))
        rr.subtract(ConvexPolytope.box([0.0], [0.5]))
        rr.subtract(ConvexPolytope.box([0.5], [1.0]))
        assert rr.is_empty(solver)

    def test_epsilon_gap_region_stays_alive(self, solver):
        rr = RelevanceRegion(ConvexPolytope.unit_box(1))
        rr.subtract(ConvexPolytope.box([0.0], [0.49]))
        rr.subtract(ConvexPolytope.box([0.51], [1.0]))
        assert not rr.is_empty(solver)

    def test_identical_cost_functions_mutually_dominate(self, solver):
        part = SharedPartition([0.0], [1.0], 2)
        poly = ParamPolynomial.variable(1, 0) * 2 + 1
        a = part.vector_from_polynomials({"time": poly, "fees": poly})
        b = part.vector_from_polynomials({"time": poly, "fees": poly})
        doms = a.dominance_polytopes(b, solver)
        for x in np.linspace(0, 1, 11):
            assert any(p.contains_point([x]) for p in doms)


class TestDegenerateQueries:
    def test_two_table_minimum(self):
        query = QueryGenerator(seed=93).generate(2, "chain", 1)
        result = PWLRRPA(
            cost_model_factory=lambda q: CloudCostModel(q, resolution=2)
        ).optimize(query)
        assert result.entries

    def test_single_table_pwl(self):
        query = QueryGenerator(seed=94).generate(1, "chain", 1)
        result = PWLRRPA(
            cost_model_factory=lambda q: CloudCostModel(q, resolution=2)
        ).optimize(query)
        # Full scan and index seek both survive (seek wins at low, scan
        # at high selectivity) or one dominates; never zero plans.
        assert 1 <= len(result.entries) <= 2

    def test_zero_params_uses_dummy_dimension(self):
        query = QueryGenerator(seed=95).generate(3, "chain", 0)
        result = PWLRRPA(
            cost_model_factory=lambda q: CloudCostModel(q, resolution=1)
        ).optimize(query)
        assert result.entries
        # Costs are constant along the dummy axis.
        for entry in result.entries[:3]:
            assert entry.cost.evaluate([0.1]) == entry.cost.evaluate([0.9])