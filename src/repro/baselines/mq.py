"""Multi-objective query optimization (MQ) baseline.

MQ generalizes CQ to cost *vectors* but supports no parameters (Section 1;
Ganguly, Hasan & Krishnamurthy 1992): at a fixed parameter vector, each
plan has one constant cost vector and pruning keeps the Pareto-optimal
vectors per table set.

MPQ degenerates to MQ when the parameter space contains a single point;
the test suite verifies that PWL-RRPA and this baseline agree there.  The
baseline is also what the paper's Section 1.1 argument is about: running
MQ at *sampled* parameter points cannot guarantee covering the whole
parameter space (statement M3b) — the baseline-comparison benchmark
quantifies the coverage gap.

Paper: Section 1's MQ problem, MPQ at a single parameter point; reached
by tests, examples/baseline_comparison.py and the nightly benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import OptimizationError
from ..plans import Plan, ScanPlan, combine
from ..query import Query
from ..core.enumeration import splits, subsets_in_size_order


def pareto_filter(candidates: list[tuple[dict[str, float], Plan]],
                  tol: float = 1e-12
                  ) -> list[tuple[dict[str, float], Plan]]:
    """Keep cost-vector/plan pairs that are not strictly dominated.

    Ties (equal cost vectors) keep the first-seen plan, mirroring RRPA's
    behaviour where a new plan with exactly equal cost is pruned by the
    incumbent.
    """
    kept: list[tuple[dict[str, float], Plan]] = []
    for cost, plan in candidates:
        dominated = False
        for other_cost, __ in kept:
            if all(other_cost[m] <= cost[m] + tol for m in cost):
                dominated = True
                break
        if dominated:
            continue
        kept = [(c, p) for c, p in kept
                if not (all(cost[m] <= c[m] + tol for m in c)
                        and any(cost[m] < c[m] - tol for m in c))]
        kept.append((cost, plan))
    return kept


@dataclass
class MQResult:
    """Result of a multi-objective optimization at fixed parameters.

    Attributes:
        frontier: Pareto-optimal ``(cost_vector, plan)`` pairs.
        plans_created: Plans generated during the DP.
        optimization_seconds: Wall-clock time.
    """

    frontier: list[tuple[dict[str, float], Plan]]
    plans_created: int
    optimization_seconds: float


class MQOptimizer:
    """Pareto-pruning DP optimizer at a fixed parameter vector.

    Args:
        cost_model: Cost model exposing the polynomial interface.
        parameter_values: Fixed parameter vector.
    """

    def __init__(self, cost_model, parameter_values) -> None:
        self.cost_model = cost_model
        self.x = np.asarray(parameter_values, dtype=float)

    def _evaluate(self, polys) -> dict[str, float]:
        return {m: poly.evaluate(self.x) for m, poly in polys.items()}

    def optimize(self, query: Query) -> MQResult:
        """Compute the Pareto frontier of plans at the fixed parameters.

        Raises:
            OptimizationError: If no plan can be built.
        """
        started = time.perf_counter()
        created = 0
        table: dict[frozenset[str], list[tuple[dict[str, float], Plan]]] = {}

        for name in query.tables:
            key = frozenset((name,))
            candidates = []
            for operator in self.cost_model.scan_operators(name):
                plan = ScanPlan(table=name, operator=operator)
                created += 1
                candidates.append((self._evaluate(
                    self.cost_model.scan_cost_polynomials(plan)), plan))
            table[key] = pareto_filter(candidates)

        for subset in subsets_in_size_order(query):
            candidates = list(table.get(subset, []))
            for left_set, right_set in splits(query, subset):
                lefts = table.get(left_set)
                rights = table.get(right_set)
                if not lefts or not rights:
                    continue
                for operator in self.cost_model.join_operators():
                    local = self._evaluate(
                        self.cost_model.join_cost_polynomials(
                            left_set, right_set, operator))
                    for lcost, lplan in lefts:
                        for rcost, rplan in rights:
                            created += 1
                            cost = {m: lcost[m] + rcost[m] + local[m]
                                    for m in local}
                            candidates.append(
                                (cost, combine(lplan, rplan, operator)))
            table[subset] = pareto_filter(candidates)

        key = query.table_set if query.num_tables > 1 else frozenset(
            (query.tables[0],))
        frontier = table.get(key)
        if not frontier:
            raise OptimizationError("MQ DP produced no plan")
        return MQResult(frontier=frontier, plans_created=created,
                        optimization_seconds=time.perf_counter() - started)
