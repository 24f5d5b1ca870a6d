"""Approximate-query-processing cost model (Scenario 2).

The paper's second motivating scenario: embedded SQL with approximate
query processing, where "execution time can be traded against result
precision" (Section 1, citing BlinkDB).  Metrics are ``time`` and
``precision_loss`` (= 1 - precision, so lower is better per Section 2's
transformation of quality metrics).

Sampled scans read only a fraction of their table: they are faster but
introduce precision loss.  Precision loss accumulates with ``max`` — the
least precise input bounds the result's precision — which exercises the
non-additive accumulation path of Algorithm 3 ("the code can easily be
generalized ... weighted sum, minimum, or maximum").
"""

from __future__ import annotations

from ..cost import (APPROX_METRICS, MultiObjectivePWL, ParamPolynomial,
                    SharedPartition)
from ..errors import PlanError
from ..plans import (FULL_SCAN, SAMPLED_SCAN_10, SAMPLED_SCAN_50,
                     SINGLE_NODE_HASH_JOIN, JoinOperator, Plan, JoinPlan,
                     ScanOperator, ScanPlan)
from ..query import Query
from ..cloud.cluster import DEFAULT_CLUSTER, ClusterSpec


class ApproxCostModel:
    """Time vs. precision-loss cost model for approximate processing.

    Args:
        query: The query being optimized.
        resolution: PWL grid resolution per parameter axis.
        cluster: Hardware model (reuses the Cloud cluster constants).
        partition: Optional pre-built shared partition.
    """

    metrics = APPROX_METRICS

    def __init__(self, query: Query, resolution: int = 2,
                 cluster: ClusterSpec = DEFAULT_CLUSTER,
                 partition: SharedPartition | None = None) -> None:
        self.query = query
        self.cluster = cluster
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
    # Operators
    # ------------------------------------------------------------------

    def scan_operators(self, table: str) -> tuple[ScanOperator, ...]:
        """Exact scan plus the two sampled variants."""
        return (FULL_SCAN, SAMPLED_SCAN_50, SAMPLED_SCAN_10)

    def join_operators(self) -> tuple[JoinOperator, ...]:
        """Approximate processing runs embedded: single-node join only."""
        return (SINGLE_NODE_HASH_JOIN,)

    # ------------------------------------------------------------------
    # Exact polynomial formulas
    # ------------------------------------------------------------------

    def scan_cost_polynomials(self, plan: ScanPlan
                              ) -> dict[str, ParamPolynomial]:
        """Time shrinks with the sampling rate; loss is ``1 - rate``."""
        table = self.query.catalog.table(plan.table)
        rate = plan.operator.sampling_rate
        constant = lambda v: ParamPolynomial.constant(self.num_params, v)
        time = constant(self.cluster.scan_hours_per_tuple
                        * table.cardinality * rate)
        loss = constant(1.0 - rate)
        return {"time": time, "precision_loss": loss}

    def join_cost_polynomials(self, left_tables: frozenset[str],
                              right_tables: frozenset[str],
                              operator: JoinOperator
                              ) -> dict[str, ParamPolynomial]:
        """Hash-join time over exact cardinalities; joins add no loss."""
        if operator.name != SINGLE_NODE_HASH_JOIN.name:
            raise PlanError(f"unsupported join {operator.name!r}")
        left = self.query.cardinality(left_tables).lifted(self.num_params)
        right = self.query.cardinality(right_tables).lifted(self.num_params)
        output = self.query.cardinality(
            left_tables | right_tables).lifted(self.num_params)
        time = (left + right + output) * self.cluster.process_hours_per_tuple
        zero = ParamPolynomial.constant(self.num_params, 0.0)
        return {"time": time, "precision_loss": zero}

    def plan_cost_polynomials(self, plan: Plan
                              ) -> dict[str, ParamPolynomial]:
        """Exact plan cost: time adds, precision loss is the subtree max.

        Because each leaf's loss is a *constant* polynomial, the max over
        sub-plans is well-defined without region splitting here.

        Reference: the exact cost of a plan, which the tests hold the
        optimizer's accumulated PWL costs against (tests/helpers.py).
        """
        if isinstance(plan, ScanPlan):
            return self.scan_cost_polynomials(plan)
        if isinstance(plan, JoinPlan):
            left = self.plan_cost_polynomials(plan.left)
            right = self.plan_cost_polynomials(plan.right)
            local = self.join_cost_polynomials(
                plan.left.tables, plan.right.tables, plan.operator)
            time = left["time"] + right["time"] + local["time"]
            loss_values = []
            for part in (left, right, local):
                poly = part["precision_loss"]
                if poly.degree() > 0:
                    raise PlanError("non-constant precision loss")
                loss_values.append(poly.evaluate([0.0] * self.num_params))
            loss = ParamPolynomial.constant(self.num_params,
                                            max(loss_values))
            return {"time": time, "precision_loss": loss}
        raise PlanError(f"unknown plan node {plan!r}")

    # ------------------------------------------------------------------
    # PWL cost functions
    # ------------------------------------------------------------------

    def _vector(self, key: tuple, polys) -> MultiObjectivePWL:
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
