"""Convexity recognition for unions of convex polytopes.

Algorithm 2 of the paper checks relevance-region emptiness by testing
whether the union of the cutouts *forms a convex polytope* that covers the
parameter space, citing Bemporad, Fukuda and Torrisi ("Convexity
Recognition of the Union of Polyhedra", Computational Geometry 2001).

The algorithm implemented here follows that paper's envelope construction:

1. The **envelope** of polytopes ``P_1 .. P_n`` is the polyhedron described
   by every constraint of every ``P_i`` that is *valid* for (i.e. satisfied
   by all points of) every other ``P_j``.  The envelope always contains the
   union.
2. The union is convex **iff** the envelope equals the union, i.e. iff
   ``envelope \\ (P_1 ∪ ... ∪ P_n)`` is empty.  In that case the envelope
   *is* the union's polytope representation.

Validity of a constraint for a polytope is one LP; the final difference
check reuses :mod:`repro.geometry.difference`.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..lp import LinearProgramSolver
from .constraints import LinearConstraint
from .difference import subtract_polytopes
from .polytope import ConvexPolytope


def constraint_valid_for(constraint: LinearConstraint,
                         polytope: ConvexPolytope,
                         solver: LinearProgramSolver,
                         tol: float = 1e-7) -> bool:
    """Return whether every point of ``polytope`` satisfies ``constraint``.

    Decided by maximizing ``constraint.a @ x`` over the polytope.  An empty
    polytope satisfies everything; an unbounded maximum violates any
    constraint with a non-trivial normal.
    """
    if polytope.is_empty(solver):
        return True
    result = solver.solve(-constraint.a, polytope._lhs, polytope._rhs,
                          purpose="envelope")
    if result.status == "unbounded":
        return False
    return -result.objective <= constraint.b + tol


def envelope(polytopes: Sequence[ConvexPolytope],
             solver: LinearProgramSolver) -> ConvexPolytope:
    """Return the envelope polyhedron of a set of polytopes.

    The envelope keeps exactly those facet constraints that are valid for
    *all* the polytopes; it is the tightest polyhedron describable by the
    input constraints that contains the union.

    Raises:
        ValueError: If ``polytopes`` is empty or dimensions disagree.
    """
    if not polytopes:
        raise ValueError("envelope of no polytopes is undefined")
    dim = polytopes[0].dim
    if any(p.dim != dim for p in polytopes):
        raise ValueError("mixed dimensions in envelope computation")
    kept: list[LinearConstraint] = []
    seen: set[tuple] = set()
    for i, poly in enumerate(polytopes):
        for constraint in poly.constraints:
            key = constraint.key()
            if key in seen:
                continue
            seen.add(key)
            if all(constraint_valid_for(constraint, other, solver)
                   for j, other in enumerate(polytopes) if j != i):
                kept.append(constraint)
    return ConvexPolytope(dim, kept)


def union_as_polytope(polytopes: Sequence[ConvexPolytope],
                      solver: LinearProgramSolver
                      ) -> ConvexPolytope | None:
    """Recognize whether a union of polytopes is convex.

    Args:
        polytopes: Non-empty sequence of convex polytopes.
        solver: LP solver for validity and difference checks.  Leftover
            slivers without an ``INTERIOR_EPS`` interior are ignored (the
            union is treated as convex up to measure zero, consistent
            with the pruning tolerances documented in docs/tolerances.md).

    Returns:
        The convex polytope equal to the union when the union is convex,
        otherwise ``None``.
    """
    polys = [p for p in polytopes if not p.is_empty(solver)]
    if not polys:
        return None
    if len(polys) == 1:
        return polys[0]
    env = envelope(polys, solver)
    leftover = subtract_polytopes(env, polys, solver)
    if leftover:
        return None
    return env
