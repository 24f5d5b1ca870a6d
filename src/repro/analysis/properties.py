"""Executable checks for Table 1, Theorems 1–6 and Example 2.

Each function returns a boolean (or a structured report) so the statements
proven in the paper can be validated mechanically over the constructions
from :mod:`repro.analysis.counterexamples` and over random instances.

Paper: Table 1, Theorems 1-6 and Example 2; reached by tests and the
nightly benchmarks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from ..cost import MultiObjectivePWL, PiecewiseLinearFunction
from ..geometry import ConvexPolytope
from ..lp import LinearProgramSolver
from .counterexamples import CounterExample, pareto_plans_at


def check_s1_single_metric(example_space: ConvexPolytope,
                           costs: list[PiecewiseLinearFunction],
                           samples: int = 41) -> bool:
    """Statement S1: single-metric optimality is convex along lines.

    For each plan, the set of sampled points where it is optimal (within a
    linear region, here: functions that are affine on the whole space)
    must be an interval of the sample sequence.
    """
    lows, highs = [0.0], [1.0]
    xs = np.linspace(lows[0], highs[0], samples)
    for mine in costs:
        optimal_flags = []
        for x in xs:
            value = mine.evaluate([x])
            best = min(c.evaluate([x]) for c in costs)
            optimal_flags.append(value <= best + 1e-9)
        # The optimal set must be contiguous.
        first = next((i for i, f in enumerate(optimal_flags) if f), None)
        last = next((len(optimal_flags) - 1 - i
                     for i, f in enumerate(reversed(optimal_flags)) if f),
                    None)
        if first is None:
            continue
        if not all(optimal_flags[first:last + 1]):
            return False
    return True


def check_m1_on(example: CounterExample, samples: int = 61) -> bool:
    """Statement M1 via a counter-example instance.

    Returns ``True`` when some plan is Pareto-optimal at two sampled
    points but not at a point between them — i.e. the single-metric
    convexity property *fails*.
    """
    xs = np.linspace(0.0, 3.0, samples) if example.name == "figure4" else \
        np.linspace(0.0, 2.0, samples)
    for label in example.plans:
        flags = [label in pareto_plans_at(example, [x]) for x in xs]
        true_idx = [i for i, f in enumerate(flags) if f]
        if true_idx and not all(flags[true_idx[0]:true_idx[-1] + 1]):
            return True
    return False


def check_m2_nonconvex_pareto_region(example: CounterExample,
                                     samples_per_axis: int = 21) -> bool:
    """Statement M2 via Figure 5: plan 2's Pareto region is non-convex.

    Checks that two points of the Pareto region have a midpoint outside
    it.
    """
    xs = np.linspace(0.0, 2.0, samples_per_axis)
    region_points = []
    for x1 in xs:
        for x2 in xs:
            if "plan2" in pareto_plans_at(example, [x1, x2]):
                region_points.append(np.array([x1, x2]))
    for a, b in itertools.combinations(region_points, 2):
        mid = (a + b) / 2.0
        if "plan2" not in pareto_plans_at(example, mid):
            return True
    return False


def check_m3b(example: CounterExample, samples: int = 61) -> bool:
    """Statement M3b via Figure 6.

    Returns ``True`` when some plan is Pareto-optimal at an interior
    sample but at neither endpoint of the parameter interval.
    """
    xs = np.linspace(0.0, 2.0, samples)
    for label in example.plans:
        at_left = label in pareto_plans_at(example, [xs[0]])
        at_right = label in pareto_plans_at(example, [xs[-1]])
        inside = any(label in pareto_plans_at(example, [x])
                     for x in xs[1:-1])
        if inside and not at_left and not at_right:
            return True
    return False


def check_theorem2_dominance_convex(solver: LinearProgramSolver,
                                    seed: int = 0, trials: int = 20) -> bool:
    """Theorem 2: within a linear region, Dom(p1, p2) is a convex polytope.

    Random affine cost pairs over the unit box; the dominance region
    reported by :meth:`MultiObjectivePWL.dominance_polytopes` must be a
    single convex polytope (or empty), and pointwise dominance must agree
    with polytope membership on a sample grid.
    """
    rng = random.Random(seed)
    space = ConvexPolytope.unit_box(2)
    xs = np.linspace(0.0, 1.0, 9)
    grid = [np.array([a, b]) for a in xs for b in xs]
    for __ in range(trials):
        def rand_cost():
            return MultiObjectivePWL.affine(
                space,
                {"m1": [rng.uniform(-1, 1), rng.uniform(-1, 1)],
                 "m2": [rng.uniform(-1, 1), rng.uniform(-1, 1)]},
                {"m1": rng.uniform(0, 2), "m2": rng.uniform(0, 2)})
        c1, c2 = rand_cost(), rand_cost()
        polys = c1.dominance_polytopes(c2, solver)
        if len(polys) > 1:
            return False
        for x in grid:
            inside = bool(polys) and polys[0].contains_point(x, tol=1e-7)
            pointwise = c1.dominates_at(c2, x, tol=1e-7)
            # Membership may disagree only within tolerance of the
            # boundary: a point within 1e-5 of the polytope but not
            # 1e-5 inside it.
            if inside != pointwise:
                if (bool(polys) and polys[0].contains_point(x, tol=1e-5)
                        and not polys[0].contains_point(x, tol=-1e-5)):
                    continue
                return False
    return True


@dataclass(frozen=True)
class ParetoCountObservation:
    """Observed vs. bound plan counts for Theorem 6.

    Attributes:
        num_params: nX.
        num_metrics: nM.
        observed: Number of plans not p.v.i.-dominated.
        bound: The paper's bound ``2 ** ((nX + 1) * nM)``.
    """

    num_params: int
    num_metrics: int
    observed: float
    bound: float


def pvi_pareto_count(num_plans: int, num_params: int, num_metrics: int,
                     seed: int = 0) -> int:
    """Count plans not dominated parameter-value-independently (p.v.i.).

    Section 6.3: plan ``p1`` dominates ``p2`` p.v.i. when every cost
    weight of ``p1`` is <= the matching weight of ``p2``.  With random
    i.i.d. weights this is dominance of random points in
    ``(nX+1)*nM``-dimensional space.
    """
    rng = np.random.default_rng(seed)
    dim = (num_params + 1) * num_metrics
    points = rng.uniform(size=(num_plans, dim))
    kept = 0
    for i in range(num_plans):
        dominated = np.any(
            np.all(points <= points[i] + 1e-12, axis=1)
            & np.any(points < points[i] - 1e-12, axis=1))
        if not dominated:
            kept += 1
    return kept


def theorem6_observation(num_plans: int, num_params: int,
                         num_metrics: int, trials: int = 5,
                         seed: int = 0) -> ParetoCountObservation:
    """Average p.v.i.-Pareto count vs. the Theorem 6 bound.

    Note: Theorem 6 bounds the *expected* count under the distributional
    model of Ganguly et al. (an unspecified number of points); for i.i.d.
    uniform points the expected Pareto count grows like
    ``(ln n)^(l-1) / (l-1)!`` and exceeds ``2^l`` once ``n`` is large, so
    comparisons against the bound are meaningful for moderate ``n`` only.
    """
    counts = [pvi_pareto_count(num_plans, num_params, num_metrics,
                               seed=seed + t)
              for t in range(trials)]
    return ParetoCountObservation(
        num_params=num_params, num_metrics=num_metrics,
        observed=float(np.mean(counts)),
        bound=float(2 ** ((num_params + 1) * num_metrics)))
