"""Polytope geometry substrate for PWL-RRPA.

Public API:

* :class:`LinearConstraint` — closed halfspace ``a @ x <= b``.
* :class:`ConvexPolytope` — H-representation polytope with LP-backed
  predicates (emptiness, containment, redundancy removal, Chebyshev
  centers, vertex enumeration).
* :func:`subtract_polytope` / :func:`subtract_polytopes` /
  :func:`union_covers` — region differences; :func:`subtract_polytope_many`
  batches one cut across many bases with batched emptiness LPs.
* :func:`emptiness_many` / :func:`chebyshev_many` /
  :func:`has_interior_many` — batched polytope predicates backed by
  :meth:`repro.lp.LinearProgramSolver.solve_many`.
* :func:`envelope` / :func:`union_as_polytope` — Bemporad-style convexity
  recognition of polytope unions (used by Algorithm 2's ``IsEmpty``).
* :class:`RelevanceRegion` — complement-of-cutouts region with the paper's
  relevance-point refinement.
* :class:`Simplex`, :func:`box_simplices` — simplicial grids for PWL
  approximation of nonlinear cost functions.
"""

from .batchops import chebyshev_many, emptiness_many, has_interior_many
from .constraints import GEOMETRY_EPS, LinearConstraint, constraints_to_arrays
from .convexity import constraint_valid_for, envelope, union_as_polytope
from .difference import (subtract_polytope, subtract_polytope_many,
                         subtract_polytopes, union_covers)
from .polytope import INTERIOR_EPS, ConvexPolytope
from .region import (EMPTINESS_STRATEGIES, RelevanceRegion,
                     default_relevance_points)
from .simplex_grid import (Simplex, box_simplices, interval_pieces,
                           kuhn_triangulation_unit_cell)

__all__ = [
    "EMPTINESS_STRATEGIES",
    "GEOMETRY_EPS",
    "INTERIOR_EPS",
    "ConvexPolytope",
    "LinearConstraint",
    "RelevanceRegion",
    "Simplex",
    "box_simplices",
    "chebyshev_many",
    "constraint_valid_for",
    "constraints_to_arrays",
    "default_relevance_points",
    "emptiness_many",
    "envelope",
    "has_interior_many",
    "interval_pieces",
    "kuhn_triangulation_unit_cell",
    "subtract_polytope",
    "subtract_polytope_many",
    "subtract_polytopes",
    "union_as_polytope",
    "union_covers",
]
