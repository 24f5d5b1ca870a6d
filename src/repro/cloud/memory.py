"""Buffer-size parameters: genuinely piecewise-linear cost functions.

Besides predicate selectivities, the paper names "the amount of buffer
space that is available at run time" as a classic PQ parameter (Sections 1
and 2).  Buffer parameters are qualitatively interesting because they make
operator cost functions *genuinely* PWL — a hash join is linear while its
build side fits in memory and switches to a different linear regime once
it spills — rather than smooth functions that merely get PWL-approximated.

:class:`MemoryCloudCostModel` extends the Cloud scenario with one extra
parameter: the fraction of per-node memory available at run time (the last
component of the parameter vector).  Hash joins pay a spill penalty
``max(0, build_rows - available) * spill_factor`` that is interpolated
onto the shared partition together with the smooth terms; with enough
resolution the kink shows up as adjacent linear pieces with different
gradients, exactly the shape PWL-RRPA is designed for.

Paper: Sections 1 and 2, buffer space as a run-time parameter; reached
by tests.
"""

from __future__ import annotations

import numpy as np

from ..cost import CLOUD_METRICS, MultiObjectivePWL, SharedPartition
from ..errors import PlanError
from ..plans import (CLOUD_JOIN_OPERATORS, FULL_SCAN, INDEX_SEEK,
                     JoinOperator, ScanOperator, ScanPlan)
from ..query import Query
from .cluster import DEFAULT_CLUSTER, ClusterSpec
from .pricing import DEFAULT_PRICING, PricingModel


class MemoryCloudCostModel:
    """Cloud cost model with selectivity parameters plus a buffer parameter.

    The parameter vector is ``(x_0, ..., x_{k-1}, m)`` where the ``x_i``
    are the query's predicate selectivities and ``m`` in ``[0, 1]`` is the
    fraction of :attr:`ClusterSpec.memory_tuples_per_node` available to
    hash-join builds at run time.

    Args:
        query: The query being optimized.
        resolution: PWL grid resolution per axis (use >= 2 so the spill
            kink is representable).
        cluster: Hardware model.
        pricing: Fee model.
        spill_factor: Extra processing hours per spilled build tuple,
            expressed as a multiple of ``process_hours_per_tuple``.
    """

    metrics = CLOUD_METRICS

    def __init__(self, query: Query, resolution: int = 2,
                 cluster: ClusterSpec = DEFAULT_CLUSTER,
                 pricing: PricingModel = DEFAULT_PRICING,
                 spill_factor: float = 3.0) -> None:
        self.query = query
        self.cluster = cluster
        self.pricing = pricing
        self.spill_factor = float(spill_factor)
        self.num_sel_params = query.num_params
        self.num_params = self.num_sel_params + 1
        self.memory_index = self.num_params - 1
        self.partition = SharedPartition([0.0] * self.num_params,
                                         [1.0] * self.num_params,
                                         resolution)
        self._vector_cache: dict[tuple, MultiObjectivePWL] = {}

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------

    def scan_operators(self, table: str) -> tuple[ScanOperator, ...]:
        """Same access paths as the plain Cloud model."""
        pred = self.query.parametric_predicate_of(table)
        if pred is not None and self.query.catalog.has_index(
                table, pred.column):
            return (FULL_SCAN, INDEX_SEEK)
        return (FULL_SCAN,)

    def join_operators(self) -> tuple[JoinOperator, ...]:
        """Single-node and parallel hash joins."""
        return CLOUD_JOIN_OPERATORS

    # ------------------------------------------------------------------
    # Cost callables (evaluated pointwise, interpolated onto the grid)
    # ------------------------------------------------------------------

    def _sel(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float)[: self.num_sel_params]

    def _memory_tuples(self, x) -> float:
        frac = float(np.asarray(x, dtype=float)[self.memory_index])
        return frac * self.cluster.memory_tuples_per_node

    def _cardinality(self, tables: frozenset[str], x) -> float:
        sel = self._sel(x)
        return self.query.cardinality(tables).evaluate(sel)

    def _scan_values(self, plan: ScanPlan, x) -> dict[str, float]:
        table = self.query.catalog.table(plan.table)
        if plan.operator.name == FULL_SCAN.name:
            time = self.cluster.scan_hours_per_tuple * table.cardinality
        elif plan.operator.name == INDEX_SEEK.name:
            pred = self.query.parametric_predicate_of(plan.table)
            if pred is None:
                raise PlanError(
                    f"index seek on {plan.table!r} without predicate")
            matched = self._cardinality(frozenset((plan.table,)), x)
            time = (self.cluster.seek_startup_hours
                    + self.cluster.seek_hours_per_tuple * matched)
        else:
            raise PlanError(f"unknown scan operator {plan.operator.name!r}")
        return {"time": time,
                "fees": time * self.pricing.usd_per_node_hour}

    def _join_values(self, left_tables, right_tables, operator, x
                     ) -> dict[str, float]:
        cluster = self.cluster
        left = self._cardinality(left_tables, x)
        right = self._cardinality(right_tables, x)
        output = self._cardinality(left_tables | right_tables, x)
        through = left + right + output
        memory = self._memory_tuples(x)
        spill_hours = (self.spill_factor
                       * cluster.process_hours_per_tuple)
        if operator.name == "hash_join":
            spilled = max(0.0, left - memory)
            time = (through * cluster.process_hours_per_tuple
                    + spilled * spill_hours)
            work = time
        elif operator.name == "parallel_hash_join":
            shuffled = left + right
            per_node_build = left / cluster.num_nodes
            spilled = max(0.0, per_node_build - memory)
            time = (cluster.parallel_startup_hours
                    + (shuffled * cluster.shuffle_hours_per_tuple
                       + through * cluster.process_hours_per_tuple)
                    / cluster.num_nodes
                    + spilled * spill_hours)
            work = (cluster.parallel_coordination_work_hours
                    + shuffled * cluster.shuffle_work_hours_per_tuple
                    + through * cluster.process_hours_per_tuple
                    + spilled * spill_hours * cluster.num_nodes)
        else:
            raise PlanError(f"unknown join operator {operator.name!r}")
        return {"time": time,
                "fees": work * self.pricing.usd_per_node_hour}

    # ------------------------------------------------------------------
    # PWL cost functions (backend interface)
    # ------------------------------------------------------------------

    def _vector_from_callable(self, key: tuple, fn) -> MultiObjectivePWL:
        cached = self._vector_cache.get(key)
        if cached is None:
            components = {}
            for metric in ("time", "fees"):
                components[metric] = self.partition.interpolate(
                    lambda v, m=metric: fn(v)[m])
            cached = MultiObjectivePWL(components)
            self._vector_cache[key] = cached
        return cached

    def scan_cost(self, plan: ScanPlan) -> MultiObjectivePWL:
        """PWL cost of a scan (constant along the memory axis)."""
        key = ("scan", plan.table, plan.operator.name)
        return self._vector_from_callable(
            key, lambda x: self._scan_values(plan, x))

    def join_local_cost(self, left_tables: frozenset[str],
                        right_tables: frozenset[str],
                        operator: JoinOperator) -> MultiObjectivePWL:
        """PWL cost of the join, with the spill kink along the memory axis."""
        key = ("join", tuple(sorted(left_tables)),
               tuple(sorted(right_tables)), operator.name)
        return self._vector_from_callable(
            key, lambda x: self._join_values(left_tables, right_tables,
                                             operator, x))

    def plan_cost_values(self, plan, x) -> dict[str, float]:
        """Exact (un-approximated) cost vector of a whole plan at ``x``.

        Used by tests as ground truth; the optimizer itself reasons about
        the PWL interpolations.
        """
        from ..plans import JoinPlan
        if isinstance(plan, ScanPlan):
            return self._scan_values(plan, x)
        if isinstance(plan, JoinPlan):
            left = self.plan_cost_values(plan.left, x)
            right = self.plan_cost_values(plan.right, x)
            local = self._join_values(plan.left.tables, plan.right.tables,
                                      plan.operator, x)
            return {m: left[m] + right[m] + local[m] for m in local}
        raise PlanError(f"unknown plan node {plan!r}")
