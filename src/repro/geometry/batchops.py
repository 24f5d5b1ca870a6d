"""Batched geometric predicates: one LP pass over many polytopes.

The emptiness and interior checks behind relevance-region maintenance are
the optimizer's dominant cost center (see ``bench_ablation_refinements``):
each is one tiny LP, and the scalar code paths solve them one Python call
at a time.  The helpers here assemble the same LPs for a whole batch of
polytopes and hand them to :meth:`repro.lp.LinearProgramSolver.solve_many`,
which answers in-batch duplicates from the LP-result memo.

Every helper replicates the corresponding :class:`ConvexPolytope` method
decision for decision — same trivial fast paths, same LP formulation, same
per-instance result caching — so batched and scalar callers observe
identical predicate outcomes (the bit-identical-plan-set contract of the
vectorized kernels).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..lp import LinearProgramSolver
from .polytope import INTERIOR_EPS, ConvexPolytope


def emptiness_many(polytopes: Sequence[ConvexPolytope],
                   solver: LinearProgramSolver) -> list[bool]:
    """Batched :meth:`ConvexPolytope.is_empty` over many polytopes.

    Cached and trivially decidable instances answer without an LP exactly
    as the scalar method does; the remaining feasibility LPs are solved in
    one :meth:`~repro.lp.LinearProgramSolver.solve_many` pass.  Results
    are cached on each polytope, so interleaving batched and scalar calls
    is safe.
    """
    pending: list[ConvexPolytope] = []
    for poly in polytopes:
        if poly._empty_cache is not None:
            continue
        if poly.has_trivially_infeasible():
            poly._empty_cache = True
        elif not poly.num_constraints:
            poly._empty_cache = False
        else:
            pending.append(poly)
    if pending:
        results = solver.solve_many(
            [(np.zeros(poly.dim), poly._a, poly._b, None)
             for poly in pending],
            purpose="emptiness")
        for poly, result in zip(pending, results):
            poly._empty_cache = result.is_infeasible
    return [poly._empty_cache for poly in polytopes]


def chebyshev_many(polytopes: Sequence[ConvexPolytope],
                   solver: LinearProgramSolver
                   ) -> list[tuple[np.ndarray | None, float]]:
    """Batched :meth:`ConvexPolytope.chebyshev` over many polytopes.

    Assembles the largest-inscribed-ball LPs of all uncached polytopes
    into one ``solve_many`` pass; per-instance ``(center, radius)`` caches
    are populated exactly as by the scalar method.
    """
    pending: list[ConvexPolytope] = []
    for poly in polytopes:
        if poly._cheb_cache is not None:
            continue
        if poly.has_trivially_infeasible():
            poly._cheb_cache = (None, -np.inf)
        elif not poly.num_constraints:
            poly._cheb_cache = (None, np.inf)
        else:
            pending.append(poly)
    if pending:
        problems = []
        objectives: dict[int, np.ndarray] = {}
        for poly in pending:
            c = objectives.get(poly.dim)
            if c is None:  # one read-only objective per dimension
                c = objectives[poly.dim] = np.zeros(poly.dim + 1)
                c[-1] = -1.0  # maximize r
                c.setflags(write=False)
            # [A | 1]: a column of ones for r.
            a_ext = np.ones((poly._a.shape[0], poly.dim + 1))
            a_ext[:, :-1] = poly._a
            problems.append((c, a_ext, poly._b, None))
        results = solver.solve_many(problems, purpose="chebyshev")
        for poly, result in zip(pending, results):
            if result.is_infeasible:
                poly._cheb_cache = (None, -np.inf)
            elif result.status == "unbounded":
                poly._cheb_cache = (None, np.inf)
            else:
                poly._cheb_cache = (result.x[: poly.dim],
                                    float(result.x[-1]))
    return [poly._cheb_cache for poly in polytopes]


def has_interior_many(polytopes: Sequence[ConvexPolytope],
                      solver: LinearProgramSolver) -> list[bool]:
    """Batched :meth:`ConvexPolytope.has_interior` over many polytopes."""
    return [radius > INTERIOR_EPS
            for __, radius in chebyshev_many(polytopes, solver)]

