"""The Cloud cost model: execution time and monetary fees (Scenario 1).

This is the cost model of the paper's experimental evaluation (Section 7):

* metrics ``time`` (wall clock, hours) and ``fees`` (USD, proportional to
  total work across nodes);
* scan operators: full table scan vs. index seek on the parametric
  predicate column — the seek wins for low selectivities, the scan for
  high ones, so "plans must often be kept for both cases";
* join operators: single-node hash join vs. parallel hash join — the
  parallel join shuffles its inputs, adding work (fees) while cutting wall
  clock for large inputs (Figure 7).

Costs are computed exactly as polynomials in the selectivity parameters
(:class:`repro.cost.ParamPolynomial`) and PWL-interpolated onto a
:class:`repro.cost.SharedPartition`, so every cost function produced by one
model instance lives on the same region partition (aligned fast paths).
"""

from __future__ import annotations

from ..cost import (CLOUD_METRICS, MultiObjectivePWL, ParamPolynomial,
                    SharedPartition)
from ..errors import PlanError
from ..plans import (CLOUD_JOIN_OPERATORS, FULL_SCAN, INDEX_SEEK, JoinPlan,
                     JoinOperator, Plan, ScanOperator, ScanPlan)
from ..query import Query
from .cluster import DEFAULT_CLUSTER, ClusterSpec
from .pricing import DEFAULT_PRICING, PricingModel


class CloudCostModel:
    """Multi-objective parametric cost model for the Cloud scenario.

    Args:
        query: The query being optimized (provides cardinality polynomials).
        resolution: PWL grid cells per parameter axis.  Resolution 1 is
            exact for affine costs; products of two selectivities need
            resolution >= 2 for a reasonable approximation.
        cluster: Hardware model.
        pricing: Fee model.
        partition: Optional pre-built shared partition (must match the
            query's parameter count); built on demand otherwise.
    """

    metrics = CLOUD_METRICS

    def __init__(self, query: Query, resolution: int = 2,
                 cluster: ClusterSpec = DEFAULT_CLUSTER,
                 pricing: PricingModel = DEFAULT_PRICING,
                 partition: SharedPartition | None = None,
                 extended_operators: bool = False) -> None:
        self.query = query
        self.cluster = cluster
        self.pricing = pricing
        self.extended_operators = extended_operators
        self.num_params = max(1, query.num_params)
        if partition is None:
            partition = SharedPartition([0.0] * self.num_params,
                                        [1.0] * self.num_params,
                                        resolution)
        if partition.dim != self.num_params:
            raise ValueError("partition dimension != query parameter count")
        self.partition = partition
        self._vector_cache: dict[tuple, MultiObjectivePWL] = {}

    # ------------------------------------------------------------------
    # Operator enumeration
    # ------------------------------------------------------------------

    def scan_operators(self, table: str) -> tuple[ScanOperator, ...]:
        """Access paths available for a base table.

        The index seek is offered exactly when the table carries a
        parametric predicate with an index on its column (the paper's
        setup: "Indices are available for each column with a predicate").
        """
        pred = self.query.parametric_predicate_of(table)
        if pred is not None and self.query.catalog.has_index(
                table, pred.column):
            return (FULL_SCAN, INDEX_SEEK)
        return (FULL_SCAN,)

    def join_operators(self) -> tuple[JoinOperator, ...]:
        """Join operators available for any table-set split.

        The paper's experiments use the two hash joins; the optional
        extended set adds a sort-merge join and a block-nested-loop join
        for a richer search space (exercised by the ablation benchmark).
        """
        if self.extended_operators:
            from ..plans import BLOCK_NESTED_LOOP_JOIN, SORT_MERGE_JOIN
            return CLOUD_JOIN_OPERATORS + (SORT_MERGE_JOIN,
                                           BLOCK_NESTED_LOOP_JOIN)
        return CLOUD_JOIN_OPERATORS

    # ------------------------------------------------------------------
    # Exact polynomial cost formulas
    # ------------------------------------------------------------------

    def _lift(self, polys: dict[str, ParamPolynomial]
              ) -> dict[str, ParamPolynomial]:
        """Embed query polynomials into the model's parameter space.

        Only relevant for parameter-free queries, where the optimizer
        still works over one (dummy) parameter dimension.
        """
        return {m: p.lifted(self.num_params) for m, p in polys.items()}

    def scan_cost_polynomials(self, plan: ScanPlan
                              ) -> dict[str, ParamPolynomial]:
        """Exact time/fees polynomials for a scan plan."""
        table = self.query.catalog.table(plan.table)
        raw_rows = float(table.cardinality)
        constant = lambda v: ParamPolynomial.constant(self.num_params, v)
        if plan.operator.name == FULL_SCAN.name:
            # Sequential read of the whole table; the filter is applied on
            # the fly, so the cost does not depend on the selectivity.
            time = constant(self.cluster.scan_hours_per_tuple * raw_rows)
        elif plan.operator.name == INDEX_SEEK.name:
            pred = self.query.parametric_predicate_of(plan.table)
            if pred is None:
                raise PlanError(
                    f"index seek on {plan.table!r} without a parametric "
                    f"predicate")
            # Random access to the sigma * |T| matching rows.
            matched = self.query.base_cardinality(plan.table).lifted(
                self.num_params)
            time = (matched * self.cluster.seek_hours_per_tuple
                    + constant(self.cluster.seek_startup_hours))
        else:
            raise PlanError(f"unknown scan operator {plan.operator.name!r}")
        # Scans run on one node: work equals wall-clock time.
        fees = time * self.pricing.usd_per_node_hour
        return self._lift({"time": time, "fees": fees})

    def join_cost_polynomials(self, left_tables: frozenset[str],
                              right_tables: frozenset[str],
                              operator: JoinOperator
                              ) -> dict[str, ParamPolynomial]:
        """Exact time/fees polynomials for the join operator itself.

        These are the *local* operator costs (``o.w`` / ``o.b`` of
        Algorithm 3); the optimizer accumulates them with the sub-plan
        costs.
        """
        cluster = self.cluster
        constant = lambda v: ParamPolynomial.constant(self.num_params, v)
        left = self.query.cardinality(left_tables).lifted(self.num_params)
        right = self.query.cardinality(right_tables).lifted(self.num_params)
        output = self.query.cardinality(
            left_tables | right_tables).lifted(self.num_params)
        through = left + right + output
        if operator.name == "hash_join":
            time = through * cluster.process_hours_per_tuple
            work = time
        elif operator.name == "sort_merge_join":
            # Sort factor uses the (optimization-time-known) raw input
            # sizes; the parameter-dependent row counts scale linearly.
            import math
            raw = sum(self.query.catalog.table(t).cardinality
                      for t in (left_tables | right_tables))
            log_factor = max(1.0, math.log2(max(raw, 2)))
            time = ((left + right) * (cluster.process_hours_per_tuple
                                      * 0.6 * log_factor)
                    + output * cluster.process_hours_per_tuple)
            work = time
        elif operator.name == "block_nl_join":
            # Quadratic in the inputs: |L| * |R| block probes.  Exercises
            # genuinely nonlinear (degree-2 multilinear) cost functions.
            time = ((left * right)
                    * (cluster.process_hours_per_tuple / 1000.0)
                    + output * cluster.process_hours_per_tuple)
            work = time
        elif operator.name == "parallel_hash_join":
            shuffled = left + right
            time = (constant(cluster.parallel_startup_hours)
                    + (shuffled * cluster.shuffle_hours_per_tuple
                       + through * cluster.process_hours_per_tuple)
                    * (1.0 / cluster.num_nodes))
            work = (constant(cluster.parallel_coordination_work_hours)
                    + shuffled * cluster.shuffle_work_hours_per_tuple
                    + through * cluster.process_hours_per_tuple)
        else:
            raise PlanError(f"unknown join operator {operator.name!r}")
        fees = work * self.pricing.usd_per_node_hour
        return self._lift({"time": time, "fees": fees})

    def plan_cost_polynomials(self, plan: Plan
                              ) -> dict[str, ParamPolynomial]:
        """Exact cost polynomials of a whole plan (recursive sum)."""
        if isinstance(plan, ScanPlan):
            return self.scan_cost_polynomials(plan)
        if isinstance(plan, JoinPlan):
            left = self.plan_cost_polynomials(plan.left)
            right = self.plan_cost_polynomials(plan.right)
            local = self.join_cost_polynomials(
                plan.left.tables, plan.right.tables, plan.operator)
            return {m: left[m] + right[m] + local[m] for m in local}
        raise PlanError(f"unknown plan node {plan!r}")

    # ------------------------------------------------------------------
    # PWL cost functions (what the optimizer consumes)
    # ------------------------------------------------------------------

    def _vector(self, key: tuple, polys: dict[str, ParamPolynomial]
                ) -> MultiObjectivePWL:
        cached = self._vector_cache.get(key)
        if cached is None:
            cached = self.partition.vector_from_polynomials(polys)
            self._vector_cache[key] = cached
        return cached

    def scan_cost(self, plan: ScanPlan) -> MultiObjectivePWL:
        """PWL cost function of a scan plan."""
        key = ("scan", plan.table, plan.operator.name)
        return self._vector(key, self.scan_cost_polynomials(plan))

    def join_local_cost(self, left_tables: frozenset[str],
                        right_tables: frozenset[str],
                        operator: JoinOperator) -> MultiObjectivePWL:
        """PWL cost function of the join operator itself."""
        key = ("join", tuple(sorted(left_tables)),
               tuple(sorted(right_tables)), operator.name)
        return self._vector(key, self.join_cost_polynomials(
            left_tables, right_tables, operator))

    def plan_cost(self, plan: Plan) -> MultiObjectivePWL:
        """PWL cost function of a whole plan.

        Because interpolation onto a fixed partition is linear in the
        interpolated values, this equals the accumulation of per-node PWL
        costs exactly (asserted by the test suite).

        Reference: the tests hold the DP's accumulated per-node costs
        against this whole-plan interpolation; the baselines and
        benchmarks/bench_fig7_pruning.py (nightly) read it too.
        """
        key = ("plan", plan.signature())
        return self._vector(key, self.plan_cost_polynomials(plan))
