"""Heuristic join-order baselines: greedy construction for MPQ.

The paper's algorithms are exhaustive ("Our algorithm is exhaustive and
guarantees to generate all relevant query plans").  Randomized/heuristic
optimizers, discussed in Section 3 (Ioannidis et al.), "can never offer
formal worst-case guarantees on generating complete plan sets".  This
module provides a greedy heuristic baseline so that benchmarks can
*quantify* that gap: how much of the exhaustive Pareto plan set a cheap
heuristic recovers.

The heuristic builds left-deep plans by repeatedly joining in the table
that minimizes a weighted cost at a reference parameter point, repeated
over several weight profiles and reference points to obtain a plan
portfolio.

Paper: Section 3's heuristic optimizers, whose gap to the exhaustive
algorithm it measures; reached by tests and the nightly benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import OptimizationError
from ..plans import Plan, ScanPlan, combine
from ..query import Query


@dataclass
class GreedyResult:
    """Result of the greedy portfolio heuristic.

    Attributes:
        plans: De-duplicated plans found across all profiles.
        plans_created: Total plans constructed (including duplicates).
        optimization_seconds: Wall-clock time.
    """

    plans: list[Plan]
    plans_created: int
    optimization_seconds: float


class GreedyJoinOrderer:
    """Greedy left-deep MPQ heuristic over weight/point profiles.

    Args:
        cost_model: Polynomial-capable cost model (e.g.
            :class:`repro.cloud.CloudCostModel`).
        reference_points: Parameter vectors to optimize at.
        weight_profiles: Metric weightings to optimize for.
    """

    def __init__(self, cost_model, reference_points=None,
                 weight_profiles=None) -> None:
        self.cost_model = cost_model
        num_params = max(1, cost_model.query.num_params)
        if reference_points is None:
            reference_points = [np.full(num_params, v)
                                for v in (0.1, 0.5, 0.9)]
        if weight_profiles is None:
            names = [m.name for m in cost_model.metrics]
            weight_profiles = [{name: 1.0} for name in names]
            weight_profiles.append({name: 1.0 for name in names})
        self.reference_points = [np.asarray(p, dtype=float)
                                 for p in reference_points]
        self.weight_profiles = [dict(w) for w in weight_profiles]

    def _plan_score(self, plan: Plan, x, weights) -> float:
        polys = self.cost_model.plan_cost_polynomials(plan)
        return sum(weights.get(m, 0.0) * poly.evaluate(x)
                   for m, poly in polys.items())

    def _best_scan(self, table: str, x, weights) -> Plan:
        candidates = [ScanPlan(table=table, operator=op)
                      for op in self.cost_model.scan_operators(table)]
        return min(candidates,
                   key=lambda p: self._plan_score(p, x, weights))

    def _greedy_plan(self, query: Query, x, weights) -> tuple[Plan, int]:
        remaining = list(query.tables)
        created = 0
        # Start from the cheapest single-table scan.
        current = min((self._best_scan(t, x, weights) for t in remaining),
                      key=lambda p: self._plan_score(p, x, weights))
        start_table = next(iter(current.tables))
        remaining.remove(start_table)
        created += 1
        while remaining:
            graph = query.join_graph
            # Prefer tables connected to the current prefix.
            connected = [t for t in remaining
                         if graph.split_is_connected(current.tables,
                                                     frozenset((t,)))]
            pool = connected or remaining
            best = None
            for table in pool:
                scan = self._best_scan(table, x, weights)
                for op in self.cost_model.join_operators():
                    candidate = combine(current, scan, op)
                    created += 1
                    score = self._plan_score(candidate, x, weights)
                    if best is None or score < best[0]:
                        best = (score, candidate, table)
            __, current, chosen = best
            remaining.remove(chosen)
        return current, created

    def optimize(self, query: Query) -> GreedyResult:
        """Build the greedy plan portfolio.

        Raises:
            OptimizationError: For empty queries.
        """
        if not query.tables:
            raise OptimizationError("empty query")
        started = time.perf_counter()
        plans: list[Plan] = []
        signatures = set()
        created = 0
        for x in self.reference_points:
            for weights in self.weight_profiles:
                plan, built = self._greedy_plan(query, x, weights)
                created += built
                sig = plan.signature()
                if sig not in signatures:
                    signatures.add(sig)
                    plans.append(plan)
        return GreedyResult(plans=plans, plans_created=created,
                            optimization_seconds=(time.perf_counter()
                                                  - started))


def heuristic_coverage(greedy: GreedyResult, exhaustive_entries,
                       cost_model, sample_points,
                       tolerance: float = 0.01) -> float:
    """Fraction of sampled (point, metric) optima the heuristic matches.

    For each sample point and each single metric, checks whether the
    greedy portfolio contains a plan within ``(1 + tolerance)`` of the
    exhaustive optimum.  Returns the match fraction in ``[0, 1]``.
    Zero is a legitimate outcome: greedy left-deep construction can miss
    every per-metric optimum on bushy-friendly queries — exactly the gap
    that motivates exhaustive algorithms (Section 3 of the paper).
    """
    names = [m.name for m in cost_model.metrics]
    checks = 0
    hits = 0
    for x in sample_points:
        for name in names:
            exhaustive_best = min(
                e.cost.evaluate(x)[name] for e in exhaustive_entries)
            greedy_best = min(
                cost_model.plan_cost(p).evaluate(x)[name]
                for p in greedy.plans)
            checks += 1
            if greedy_best <= exhaustive_best * (1.0 + tolerance) + 1e-12:
                hits += 1
    return hits / checks if checks else 1.0
