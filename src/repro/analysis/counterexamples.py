"""Executable constructions of the paper's Section 4 counter-examples.

Table 1 contrasts three "guiding principles" that hold for single-metric
parametric query optimization (S1–S3, proven by Ganguly) with their
failure in the multi-objective case (M1–M3).  The paper proves M1–M3 via
the counter-examples of Figures 4, 5 and 6; this module constructs those
exact instances as cost functions so the statements can be *checked by
code* rather than by inspection (see ``tests/test_analysis.py`` and
``benchmarks/bench_analysis.py``).

Paper: Section 4, Table 1 and the counter-examples of Figures 4-6;
reached by tests and benchmarks/bench_analysis.py (nightly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cost import MultiObjectivePWL, PiecewiseLinearFunction
from ..cost.linear import LinearPiece
from ..geometry import ConvexPolytope


def _pwl_from_breakpoints(space: ConvexPolytope,
                          breakpoints: list[tuple[float, float]]
                          ) -> PiecewiseLinearFunction:
    """1-D PWL function interpolating ``(x, value)`` breakpoints."""
    pieces = []
    for (x0, y0), (x1, y1) in zip(breakpoints, breakpoints[1:]):
        slope = (y1 - y0) / (x1 - x0)
        region = ConvexPolytope.box([x0], [x1])
        pieces.append(LinearPiece(region=region,
                                  w=np.array([slope]),
                                  b=y0 - slope * x0))
    return PiecewiseLinearFunction(1, pieces)


@dataclass(frozen=True)
class CounterExample:
    """A named set of plan cost functions over a common parameter space.

    Attributes:
        name: Which figure of the paper it reproduces.
        space: The parameter space.
        plans: Mapping plan label -> multi-objective cost function.
        statement: The Table 1 statement the example proves.
    """

    name: str
    space: ConvexPolytope
    plans: dict[str, MultiObjectivePWL]
    statement: str


def figure4() -> CounterExample:
    """Figure 4: Pareto-optimality at two points does not imply in between.

    One parameter on ``[0, 3]``, two metrics, two plans.  Plan 1 has
    constant cost 1 on both metrics.  Plan 2's metric-1 cost dips below 1
    only on ``[0, 1)`` and its metric-2 cost dips below 1 only on
    ``(2, 3]``; in the middle range plan 2 is strictly worse on both
    metrics, so it is Pareto-optimal at parameter values 0 and 3 but not
    at 1.5 — proving statements M1 and M3a.
    """
    space = ConvexPolytope.box([0.0], [3.0])
    plan1 = MultiObjectivePWL({
        "m1": PiecewiseLinearFunction.constant(space, 1.0),
        "m2": PiecewiseLinearFunction.constant(space, 1.0),
    })
    plan2 = MultiObjectivePWL({
        # Below 1 before x=1, above 1 afterwards.
        "m1": _pwl_from_breakpoints(space,
                                    [(0.0, 0.0), (1.0, 1.0), (3.0, 2.0)]),
        # Above 1 before x=2, below 1 afterwards.
        "m2": _pwl_from_breakpoints(space,
                                    [(0.0, 2.0), (2.0, 1.0), (3.0, 0.0)]),
    })
    return CounterExample(
        name="figure4", space=space,
        plans={"plan1": plan1, "plan2": plan2},
        statement="M1/M3a: Pareto-optimal at two points but not between")


def figure5() -> CounterExample:
    """Figure 5: Pareto regions need not be convex (statement M2).

    Two parameters on ``[0, 2]^2``.  Plan 1's cost is the identity
    ``(x1, x2)``; plan 2's cost is the constant ``(1, 1)``.  Plan 1
    dominates plan 2 exactly on the square ``[0,1]^2``; plan 2's Pareto
    region is the complement — connected but clearly non-convex.
    """
    space = ConvexPolytope.box([0.0, 0.0], [2.0, 2.0])
    plan1 = MultiObjectivePWL({
        "m1": PiecewiseLinearFunction.affine(space, [1.0, 0.0], 0.0),
        "m2": PiecewiseLinearFunction.affine(space, [0.0, 1.0], 0.0),
    })
    plan2 = MultiObjectivePWL({
        "m1": PiecewiseLinearFunction.constant(space, 1.0),
        "m2": PiecewiseLinearFunction.constant(space, 1.0),
    })
    return CounterExample(
        name="figure5", space=space,
        plans={"plan1": plan1, "plan2": plan2},
        statement="M2: Pareto regions are not necessarily convex")


def figure6() -> CounterExample:
    """Figure 6: a plan can be Pareto-optimal only *inside* a polytope.

    One parameter on ``[0, 2]``, two metrics, three plans.  Plans 1 and 2
    are Pareto-optimal everywhere; plan 3 is Pareto-optimal exactly on an
    open interval strictly inside the parameter range (here ``(5/6, 7/6)``;
    the paper's instance uses ``(0.5, 1.5)``) and at neither boundary —
    proving statement M3b (plans can be Pareto-optimal within a polytope
    while not being Pareto-optimal at its vertices).
    """
    space = ConvexPolytope.box([0.0], [2.0])
    plan1 = MultiObjectivePWL({
        "m1": PiecewiseLinearFunction.constant(space, 0.5),
        "m2": PiecewiseLinearFunction.constant(space, 2.0),
    })
    plan2 = MultiObjectivePWL({
        "m1": PiecewiseLinearFunction.constant(space, 2.0),
        "m2": PiecewiseLinearFunction.constant(space, 0.5),
    })
    # Plan 3: V-shaped on both metrics, cheapest at the center.  Its m2
    # cost stays above plan 1's 2.0 everywhere, so plan 3 never dominates
    # an incumbent; plan 1 dominates plan 3 exactly where plan 3's m1
    # cost is >= 0.5, i.e. outside (5/6, 7/6).  Inside that interval no
    # plan dominates plan 3, so its Pareto region is strictly interior.
    plan3 = MultiObjectivePWL({
        "m1": _pwl_from_breakpoints(space, [(0.0, 1.75), (1.0, 0.25),
                                            (2.0, 1.75)]),
        "m2": _pwl_from_breakpoints(space, [(0.0, 3.0), (1.0, 2.1),
                                            (2.0, 3.0)]),
    })
    return CounterExample(
        name="figure6", space=space,
        plans={"plan1": plan1, "plan2": plan2, "plan3": plan3},
        statement="M3b: Pareto-optimal inside a polytope but not at "
                  "its vertices")


def pareto_plans_at(example: CounterExample, x,
                    tol: float = 1e-9) -> set[str]:
    """Labels of the plans that are Pareto-optimal at parameter ``x``.

    A plan is Pareto-optimal at ``x`` when no other plan strictly
    dominates it there (Section 2's ``pReg`` definition, restricted to the
    example's plan set).
    """
    labels = list(example.plans)
    optimal = set()
    for label in labels:
        mine = example.plans[label]
        dominated = any(
            example.plans[other].strictly_dominates_at(mine, x, tol=tol)
            for other in labels if other != label)
        if not dominated:
            optimal.add(label)
    return optimal


def all_examples() -> list[CounterExample]:
    """All Section 4 counter-examples."""
    return [figure4(), figure5(), figure6()]
