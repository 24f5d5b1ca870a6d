"""Polytope geometry substrate for PWL-RRPA.

Public API:

* :class:`ConvexPolytope` — H-representation polytope stored as
  normalized rows (float tuples, one per halfspace), with LP-backed
  predicates (emptiness, containment, redundancy removal, Chebyshev
  centers).
* :func:`subtract_polytope` / :func:`subtract_polytopes` /
  :func:`union_covers` — region differences; :func:`subtract_polytope_many`
  subtracts one cut from many bases, deciding their pieces pass by pass.
* :func:`envelope` / :func:`union_as_polytope` — Bemporad-style convexity
  recognition of polytope unions (used by Algorithm 2's ``IsEmpty``).
* :class:`RelevanceRegion` — complement-of-cutouts region with the paper's
  relevance-point refinement.
* :class:`Simplex`, :func:`box_simplices` — simplicial grids for PWL
  approximation of nonlinear cost functions.
"""

from .constraints import GEOMETRY_EPS
from .convexity import constraint_valid_for, envelope, union_as_polytope
from .difference import (subtract_polytope, subtract_polytope_many,
                         subtract_polytopes, union_covers)
from .polytope import INTERIOR_EPS, ConvexPolytope
from .region import (EMPTINESS_STRATEGIES, RelevanceRegion,
                     default_relevance_points)
from .simplex_grid import Simplex, box_simplices, kuhn_triangulation_unit_cell

__all__ = [
    "EMPTINESS_STRATEGIES",
    "GEOMETRY_EPS",
    "INTERIOR_EPS",
    "ConvexPolytope",
    "RelevanceRegion",
    "Simplex",
    "box_simplices",
    "constraint_valid_for",
    "default_relevance_points",
    "envelope",
    "kuhn_triangulation_unit_cell",
    "subtract_polytope",
    "subtract_polytope_many",
    "subtract_polytopes",
    "union_as_polytope",
    "union_covers",
]
