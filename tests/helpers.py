"""Shared test helpers: brute-force plan enumeration and frontiers,
constant costs and a region's interior witness."""

from __future__ import annotations

from itertools import product

from repro.core.enumeration import splits, subsets_in_size_order
from repro.cost import MultiObjectivePWL, PiecewiseLinearFunction
from repro.geometry import INTERIOR_EPS, subtract_polytopes
from repro.plans import Plan, ScanPlan, combine
from repro.query import Query


def enumerate_all_plans(query: Query, cost_model) -> list[Plan]:
    """Enumerate every plan in the optimizer's search space.

    Uses the same subset/split/operator enumeration as RRPA (bushy plans,
    Cartesian products postponed) but keeps *all* plans instead of
    pruning — the ground truth for completeness tests.  Only usable for
    small queries (the count grows super-exponentially).
    """
    plans: dict[frozenset[str], list[Plan]] = {}
    for table in query.tables:
        key = frozenset((table,))
        plans[key] = [ScanPlan(table=table, operator=op)
                      for op in cost_model.scan_operators(table)]
    for subset in subsets_in_size_order(query):
        bucket: list[Plan] = []
        for left_set, right_set in splits(query, subset):
            lefts = plans.get(left_set, [])
            rights = plans.get(right_set, [])
            for left, right, op in product(lefts, rights,
                                           cost_model.join_operators()):
                bucket.append(combine(left, right, op))
        plans[subset] = bucket
    key = (query.table_set if query.num_tables > 1
           else frozenset((query.tables[0],)))
    return plans[key]


def plan_cost_at(cost_model, plan: Plan, x) -> dict[str, float]:
    """Exact (polynomial) cost vector of a plan at parameter ``x``."""
    return {m: poly.evaluate(x)
            for m, poly in cost_model.plan_cost_polynomials(plan).items()}


def pwl_plan_cost_at(cost_model, plan: Plan, x) -> dict[str, float]:
    """PWL-approximated cost vector of a plan at parameter ``x``."""
    return cost_model.plan_cost(plan).evaluate(x)


def dominates(cost_a: dict[str, float], cost_b: dict[str, float],
              tol: float = 1e-9) -> bool:
    """Vector dominance: a <= b on every metric (within tolerance)."""
    return all(cost_a[m] <= cost_b[m] + tol for m in cost_b)


def constant_cost(space, values: dict[str, float]):
    """The constant cost vector ``values`` on ``space``."""
    return MultiObjectivePWL({
        name: PiecewiseLinearFunction.constant(space, value)
        for name, value in values.items()})


def interior_witness(region, solver):
    """A point of a :class:`~repro.geometry.RelevanceRegion` worked out
    apart from it: the Chebyshev center of the first piece of its space
    minus its cutouts that has an interior, or ``None``."""
    for piece in subtract_polytopes(region.space, region.cutouts, solver):
        center, radius = piece.chebyshev(solver)
        if radius > INTERIOR_EPS:
            return center
    return None
