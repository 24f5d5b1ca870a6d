"""Parametric query optimization (PQ) baseline: one metric, parameters.

PQ generalizes CQ in the orthogonal direction to MQ: plan costs are
*functions* of parameters, but there is only one cost metric (Section 1;
Ganguly 1998, Hulgeri & Sudarshan 2002).  This baseline runs the RRPA
machinery restricted to a single metric, which makes it a dynamic-
programming PQ optimizer in the style of Hulgeri & Sudarshan: each plan is
kept with the parameter-space region where it is (near-)optimal.

Because PQ is literally the one-metric special case of MPQ, the
implementation *is* PWL-RRPA over a single-component cost function; the
value of the baseline is (a) validating that specialization (statement S2:
with one metric, each plan's region within a linear region is convex — the
test suite checks the relevance regions it produces) and (b) providing the
optimization-time reference point the paper compares against in its
Discussion ("our optimization times are higher but still comparable to
optimization times of single-objective PQ algorithms").

Paper: Section 1's PQ problem, the one-metric special case of MPQ;
reached by tests, examples/baseline_comparison.py and the nightly
benchmarks.
"""

from __future__ import annotations

from ..cost import MultiObjectivePWL
from ..core import OptimizationResult, PWLRRPA, PWLRRPAOptions
from ..query import Query


class SingleMetricModel:
    """Adapter restricting a multi-metric cost model to one metric.

    Args:
        base_model: The full cost model (e.g.
            :class:`repro.cloud.CloudCostModel`).
        metric: Name of the metric to keep.
    """

    def __init__(self, base_model, metric: str) -> None:
        names = [m.name for m in base_model.metrics]
        if metric not in names:
            raise ValueError(f"unknown metric {metric!r}; have {names}")
        self.base_model = base_model
        self.metric = metric
        self.metrics = tuple(m for m in base_model.metrics
                             if m.name == metric)
        self.partition = base_model.partition
        self.query = base_model.query

    def scan_operators(self, table: str):
        return self.base_model.scan_operators(table)

    def join_operators(self):
        return self.base_model.join_operators()

    def _restrict(self, cost: MultiObjectivePWL) -> MultiObjectivePWL:
        return MultiObjectivePWL(
            {self.metric: cost.component(self.metric)})

    def scan_cost(self, plan) -> MultiObjectivePWL:
        return self._restrict(self.base_model.scan_cost(plan))

    def join_local_cost(self, left_tables, right_tables,
                        operator) -> MultiObjectivePWL:
        return self._restrict(self.base_model.join_local_cost(
            left_tables, right_tables, operator))

    def scan_cost_polynomials(self, plan):
        polys = self.base_model.scan_cost_polynomials(plan)
        return {self.metric: polys[self.metric]}


class PQOptimizer:
    """Single-metric parametric DP optimizer.

    Args:
        cost_model_factory: Maps a query to a full multi-metric cost model.
        metric: The single metric to optimize (default ``"time"``).
        options: PWL backend options.
    """

    def __init__(self, cost_model_factory, metric: str = "time",
                 options: PWLRRPAOptions | None = None) -> None:
        self.cost_model_factory = cost_model_factory
        self.metric = metric
        self.options = options

    def optimize(self, query: Query) -> OptimizationResult:
        """Compute a parametric optimal plan set for one metric."""
        base_model = self.cost_model_factory(query)
        model = SingleMetricModel(base_model, self.metric)
        optimizer = PWLRRPA(options=self.options)
        return optimizer.optimize_with_model(query, model)
