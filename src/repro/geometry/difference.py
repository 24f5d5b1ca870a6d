"""Set difference of convex polytopes.

The difference ``P \\ Q`` of two convex polytopes is generally non-convex,
but it decomposes into at most ``len(Q.constraints)`` convex pieces: for the
``i``-th constraint ``a_i @ x <= b_i`` of ``Q``, one piece keeps the points
of ``P`` that violate constraint ``i`` while satisfying constraints
``0..i-1``.  This sequential-complement decomposition is the standard
region-difference construction used in parametric programming and is the
workhorse behind relevance-region emptiness checks (Algorithm 2 of the
paper): a relevance region is empty exactly when subtracting all cutouts
from the parameter space leaves nothing (up to measure zero).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ..lp import LinearProgramSolver
from ..util import scalar_kernels_enabled
from .batchops import emptiness_many, has_interior_many
from .polytope import INTERIOR_EPS, ConvexPolytope


def subtract_polytope(base: ConvexPolytope, cut: ConvexPolytope,
                      solver: LinearProgramSolver,
                      interior_eps: float = INTERIOR_EPS
                      ) -> list[ConvexPolytope]:
    """Return full-dimensional convex pieces covering ``base \\ cut``.

    The pieces returned use *closed* complements of the cut constraints, so
    they may overlap ``cut`` on measure-zero boundary sets; pieces whose
    Chebyshev radius is below ``interior_eps`` are dropped.  Consequently
    the result is exact up to lower-dimensional sets, which is the
    tolerance contract documented in DESIGN.md.

    Args:
        base: The polytope to subtract from.
        cut: The polytope to remove.
        solver: LP solver used for emptiness/interior checks.
        interior_eps: Minimum Chebyshev radius for a piece to be kept.

    Returns:
        A list of disjoint-interior convex polytopes whose union equals
        ``base \\ cut`` up to measure zero.  Empty list when ``cut``
        covers ``base``.
    """
    if cut.dim != base.dim:
        raise ValueError("dimension mismatch in polytope subtraction")
    if base.is_empty(solver):
        return []
    if not cut.constraints:
        # Subtracting the universe leaves nothing.
        return []
    # Fast path: a cut that misses the base entirely (no interior overlap)
    # leaves the base unchanged — avoids fragmenting the base into pieces
    # that would immediately be reassembled.
    if not base.intersect(cut).has_interior(solver, eps=interior_eps):
        return [base]
    pieces: list[ConvexPolytope] = []
    prefix = base
    for constraint in cut.constraints:
        piece = prefix.with_constraint(constraint.negation())
        if piece.has_interior(solver, eps=interior_eps):
            pieces.append(piece)
        prefix = prefix.with_constraint(constraint)
        if prefix.is_empty(solver):
            break
    return pieces


def subtract_polytope_many(bases: Sequence[ConvexPolytope],
                           cut: ConvexPolytope,
                           solver: LinearProgramSolver,
                           interior_eps: float = INTERIOR_EPS
                           ) -> list[list[ConvexPolytope]]:
    """Subtract one cut from many base polytopes with batched LPs.

    Produces, for every base, exactly the piece list
    :func:`subtract_polytope` would return, but assembles the underlying
    LPs into three batched passes instead of interleaving them per base:

    1. base emptiness (usually answered from the per-polytope cache),
    2. the overlap fast path — one interior check per surviving base,
    3. one interior check per candidate piece of every clipped base.

    The scalar loop additionally solves a *prefix emptiness* LP after each
    cut constraint purely to break out early; the batched form decides
    every candidate piece directly, so those LPs disappear entirely
    (pieces past a scalar early-exit lie inside an empty prefix and are
    dropped by their own interior check, leaving the results identical).
    With ``REPRO_SCALAR_KERNELS=1`` the scalar path runs instead.
    """
    if scalar_kernels_enabled():
        return [subtract_polytope(base, cut, solver,
                                  interior_eps=interior_eps)
                for base in bases]
    for base in bases:
        if cut.dim != base.dim:
            raise ValueError("dimension mismatch in polytope subtraction")
    results: list[list[ConvexPolytope] | None] = [None] * len(bases)
    live: list[int] = []
    for i, empty in enumerate(emptiness_many(bases, solver)):
        if empty or not cut.constraints:
            # An empty base, or subtracting the universe, leaves nothing.
            results[i] = []
        else:
            live.append(i)
    # Fast path: cuts that miss a base entirely leave it unchanged.
    overlaps = [bases[i].intersect(cut) for i in live]
    clipped: list[int] = []
    for i, interior in zip(live, has_interior_many(overlaps, solver,
                                                   eps=interior_eps)):
        if interior:
            clipped.append(i)
        else:
            results[i] = [bases[i]]
    # Candidate pieces of every clipped base, in the scalar path's order:
    # piece_k keeps the points violating cut constraint k while satisfying
    # constraints 0..k-1.  Construction is LP-free; one batched interior
    # pass decides which candidates survive.
    candidates: list[ConvexPolytope] = []
    spans: list[tuple[int, int, int]] = []  # (base index, start, stop)
    for i in clipped:
        start = len(candidates)
        prefix = bases[i]
        for constraint in cut.constraints:
            candidates.append(prefix.with_constraint(constraint.negation()))
            prefix = prefix.with_constraint(constraint)
        spans.append((i, start, len(candidates)))
    keep = has_interior_many(candidates, solver, eps=interior_eps)
    for i, start, stop in spans:
        results[i] = [candidates[k] for k in range(start, stop) if keep[k]]
    return results


def subtract_polytopes(base: ConvexPolytope,
                       cuts: Iterable[ConvexPolytope],
                       solver: LinearProgramSolver,
                       interior_eps: float = INTERIOR_EPS,
                       stop_when_empty: bool = True
                       ) -> list[ConvexPolytope]:
    """Subtract a sequence of polytopes from ``base``.

    Maintains a worklist of convex pieces and subtracts each cut from every
    piece in turn.

    Args:
        base: Polytope to subtract from.
        cuts: Polytopes to remove, applied in order.
        solver: LP solver for the geometric predicates.
        interior_eps: Minimum Chebyshev radius for pieces to survive.
        stop_when_empty: Return early as soon as no pieces remain.

    Returns:
        Convex pieces covering ``base`` minus the union of ``cuts`` (up to
        measure zero).
    """
    pieces = [] if base.is_empty(solver) else [base]
    for cut in cuts:
        if not pieces and stop_when_empty:
            return []
        groups = subtract_polytope_many(pieces, cut, solver,
                                        interior_eps=interior_eps)
        pieces = [piece for group in groups for piece in group]
    return pieces


def union_covers(base: ConvexPolytope,
                 cover: Iterable[ConvexPolytope],
                 solver: LinearProgramSolver,
                 interior_eps: float = INTERIOR_EPS) -> bool:
    """Return whether the union of ``cover`` contains ``base`` up to measure zero.

    This implements the emptiness test of Algorithm 2 directly: the
    relevance region (``base`` minus the cutouts) is empty iff the cutouts
    cover the parameter space.
    """
    return not subtract_polytopes(base, cover, solver,
                                  interior_eps=interior_eps)
