"""Grid backend: the generic RRPA instantiated for arbitrary cost functions.

Section 5 presents RRPA as generic over "arbitrary cost functions"; the
concrete data structures are only fixed once a cost-function class is
chosen.  This backend chooses the simplest sound instantiation: a *finite*
parameter space consisting of grid points.  Cost objects are per-metric
value arrays over the grid; relevance regions are boolean masks; dominance
regions are pointwise comparisons.  Every elementary operation is exact,
no LP is ever solved, and Theorem 3's completeness guarantee applies
verbatim with ``X = {grid points}``.

The grid backend serves three purposes:

* it makes the *generic* algorithm executable (deliverable of Section 5);
* it cross-validates PWL-RRPA: at every grid point the plan frontier found
  by the grid backend must match the frontier induced by PWL-RRPA's plan
  set (integration tests);
* it handles cost functions that are not PWL at all — the exact polynomial
  cost formulas of the Cloud model are evaluated without PWL-approximation
  error here.

Paper: Section 5's generic RRPA (Algorithm 1) over arbitrary cost
functions; reached by tests and benchmarks/bench_generic_vs_pwl.py
(nightly).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..plans import JoinOperator, ScanOperator, ScanPlan
from ..query import Query
from .backend import RRPABackend


def make_grid(num_params: int, points_per_axis: int = 5,
              lows: Sequence[float] | None = None,
              highs: Sequence[float] | None = None) -> np.ndarray:
    """Build a regular grid over the parameter box.

    Args:
        num_params: Parameter-space dimensionality (>= 1).
        points_per_axis: Grid density.
        lows / highs: Box bounds, default the unit box.

    Returns:
        Array of shape ``(points_per_axis ** num_params, num_params)``.
    """
    lows = [0.0] * num_params if lows is None else list(lows)
    highs = [1.0] * num_params if highs is None else list(highs)
    axes = [np.linspace(lo, hi, points_per_axis)
            for lo, hi in zip(lows, highs)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


class GridCost:
    """Cost object of the grid backend: per-metric value arrays.

    Attributes:
        values: Mapping metric name -> array of costs, one per grid point.
    """

    __slots__ = ("values",)

    def __init__(self, values: dict[str, np.ndarray]) -> None:
        self.values = values

    def evaluate_index(self, index: int) -> dict[str, float]:
        """Cost vector at the grid point with the given index."""
        return {m: float(v[index]) for m, v in self.values.items()}


class GridRegion:
    """Relevance region of the grid backend: a boolean membership mask."""

    __slots__ = ("mask", "points")

    def __init__(self, mask: np.ndarray, points: np.ndarray) -> None:
        self.mask = mask
        self.points = points


class GridBackend(RRPABackend):
    """Generic-RRPA backend over a finite grid of parameter points.

    Args:
        query: The query to optimize.
        cost_model: Object exposing ``scan_operators``, ``join_operators``,
            ``scan_cost_polynomials``, ``join_cost_polynomials`` and
            ``metrics`` (e.g. :class:`repro.cloud.CloudCostModel`); the
            exact polynomials are evaluated at the grid points — no PWL
            approximation is involved.
        points: Grid points, shape ``(num_points, num_params)``; defaults
            to a 5-per-axis regular grid on the unit box.
    """

    def __init__(self, query: Query, cost_model,
                 points: np.ndarray | None = None) -> None:
        self.query = query
        self.cost_model = cost_model
        if points is None:
            points = make_grid(max(1, query.num_params))
        self.points = np.asarray(points, dtype=float)
        if self.points.ndim != 2:
            raise ValueError("grid points must be a 2-D array")
        self.num_points = self.points.shape[0]

    # ------------------------------------------------------------------
    # Operators and costs
    # ------------------------------------------------------------------

    def scan_operators(self, table: str) -> Sequence[ScanOperator]:
        return self.cost_model.scan_operators(table)

    def join_operators(self) -> Sequence[JoinOperator]:
        return self.cost_model.join_operators()

    def _evaluate_polys(self, polys) -> GridCost:
        values = {}
        for metric, poly in polys.items():
            values[metric] = np.array(
                [poly.evaluate(x) for x in self.points])
        return GridCost(values)

    def scan_cost(self, plan: ScanPlan) -> GridCost:
        return self._evaluate_polys(
            self.cost_model.scan_cost_polynomials(plan))

    def join_local_cost(self, left_tables: frozenset[str],
                        right_tables: frozenset[str],
                        operator: JoinOperator) -> GridCost:
        return self._evaluate_polys(self.cost_model.join_cost_polynomials(
            left_tables, right_tables, operator))

    def accumulate(self, local_cost: GridCost,
                   sub_costs: Sequence[GridCost]) -> GridCost:
        values = {m: v.copy() for m, v in local_cost.values.items()}
        for sub in sub_costs:
            for metric in values:
                values[metric] += sub.values[metric]
        return GridCost(values)

    # ------------------------------------------------------------------
    # Regions
    # ------------------------------------------------------------------

    def full_region(self) -> GridRegion:
        return GridRegion(np.ones(self.num_points, dtype=bool), self.points)

    def dominance(self, cost_a: GridCost, cost_b: GridCost) -> np.ndarray:
        """Pointwise ``Dom(a, b)`` mask: a <= b on every metric."""
        mask = np.ones(self.num_points, dtype=bool)
        for metric, a_vals in cost_a.values.items():
            mask &= a_vals <= cost_b.values[metric] + 1e-12
        return mask

    def reduce_region(self, region: GridRegion,
                      dominated: np.ndarray) -> None:
        region.mask &= ~dominated

    def region_is_empty(self, region: GridRegion) -> bool:
        return not bool(region.mask.any())
