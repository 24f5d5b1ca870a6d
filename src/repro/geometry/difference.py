"""Set difference of convex polytopes.

The difference ``P \\ Q`` of two convex polytopes is generally non-convex,
but it decomposes into at most ``Q.num_constraints`` convex pieces: for the
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
from .polytope import ConvexPolytope


def subtract_polytope(base: ConvexPolytope, cut: ConvexPolytope,
                      solver: LinearProgramSolver) -> list[ConvexPolytope]:
    """Return full-dimensional convex pieces covering ``base \\ cut``.

    The pieces returned use *closed* complements of the cut constraints, so
    they may overlap ``cut`` on measure-zero boundary sets; pieces whose
    Chebyshev radius is at most ``INTERIOR_EPS`` are dropped.  Consequently
    the result is exact up to lower-dimensional sets, which is the
    tolerance contract documented in docs/tolerances.md.

    Args:
        base: The polytope to subtract from.
        cut: The polytope to remove.
        solver: LP solver used for emptiness/interior checks.

    Returns:
        A list of disjoint-interior convex polytopes whose union equals
        ``base \\ cut`` up to measure zero.  Empty list when ``cut``
        covers ``base``.
    """
    if cut.dim != base.dim:
        raise ValueError("dimension mismatch in polytope subtraction")
    if base.is_empty(solver):
        return []
    if not cut.num_constraints:
        # Subtracting the universe leaves nothing.
        return []
    # Fast path: a cut that misses the base entirely (no interior overlap)
    # leaves the base unchanged — avoids fragmenting the base into pieces
    # that would immediately be reassembled.
    if not base.intersect(cut).has_interior(solver):
        return [base]
    pieces: list[ConvexPolytope] = []
    prefix = base
    for row, negated in cut._cut_rows():
        piece = prefix._extended(negated)
        if piece.has_interior(solver):
            pieces.append(piece)
        prefix = prefix._extended(row)
        if prefix.is_empty(solver):
            break
    return pieces


def subtract_polytope_many(bases: Sequence[ConvexPolytope],
                           cut: ConvexPolytope,
                           solver: LinearProgramSolver
                           ) -> list[list[ConvexPolytope]]:
    """Subtract one cut from many base polytopes, pass by pass.

    Produces, for every base, exactly the piece list
    :func:`subtract_polytope` would return, but decides all bases in three
    passes instead of one base at a time:

    1. base emptiness (usually answered from the per-polytope cache),
    2. the overlap fast path — one interior check per surviving base,
    3. one interior check per candidate piece of every clipped base.

    The single-base loop additionally solves a *prefix emptiness* LP after
    each cut constraint purely to break out early; this form decides
    every candidate piece directly, so those LPs disappear entirely
    (pieces past the loop's early exit lie inside an empty prefix and are
    dropped by their own interior check, leaving the results identical).
    """
    for base in bases:
        if cut.dim != base.dim:
            raise ValueError("dimension mismatch in polytope subtraction")
    results: list[list[ConvexPolytope] | None] = [None] * len(bases)
    live: list[int] = []
    for i, empty in enumerate([base.is_empty(solver) for base in bases]):
        if empty or not cut.num_constraints:
            # An empty base, or subtracting the universe, leaves nothing.
            results[i] = []
        else:
            live.append(i)
    # Fast path: cuts that miss a base entirely leave it unchanged.
    overlaps = [bases[i].intersect(cut) for i in live]
    clipped: list[int] = []
    for i, interior in zip(live, [overlap.has_interior(solver)
                                  for overlap in overlaps]):
        if interior:
            clipped.append(i)
        else:
            results[i] = [bases[i]]
    # Candidate pieces of every clipped base, in the single-base order:
    # piece_k keeps the points violating cut constraint k while satisfying
    # constraints 0..k-1.  Construction is LP-free; one interior pass
    # decides which candidates survive.  The cut's rows and their
    # negations are built once, not once per base.
    cut_rows = cut._cut_rows() if clipped else []
    candidates: list[ConvexPolytope] = []
    spans: list[tuple[int, int, int]] = []  # (base index, start, stop)
    for i in clipped:
        start = len(candidates)
        prefix = bases[i]
        for row, negated in cut_rows:
            candidates.append(prefix._extended(negated))
            prefix = prefix._extended(row)
        spans.append((i, start, len(candidates)))
    keep = [candidate.has_interior(solver) for candidate in candidates]
    for i, start, stop in spans:
        results[i] = [candidates[k] for k in range(start, stop) if keep[k]]
    return results


def subtract_polytopes(base: ConvexPolytope,
                       cuts: Iterable[ConvexPolytope],
                       solver: LinearProgramSolver
                       ) -> list[ConvexPolytope]:
    """Subtract a sequence of polytopes from ``base``.

    Maintains a worklist of convex pieces and subtracts each cut from every
    piece in turn, returning as soon as no piece remains.

    Args:
        base: Polytope to subtract from.
        cuts: Polytopes to remove, applied in order.
        solver: LP solver for the geometric predicates.

    Returns:
        Convex pieces covering ``base`` minus the union of ``cuts`` (up to
        measure zero).
    """
    pieces = [] if base.is_empty(solver) else [base]
    for cut in cuts:
        if not pieces:
            return []
        groups = subtract_polytope_many(pieces, cut, solver)
        pieces = [piece for group in groups for piece in group]
    return pieces


def union_covers(base: ConvexPolytope,
                 cover: Iterable[ConvexPolytope],
                 solver: LinearProgramSolver) -> bool:
    """Return whether the union of ``cover`` contains ``base`` up to measure zero.

    This implements the emptiness test of Algorithm 2 directly: the
    relevance region (``base`` minus the cutouts) is empty iff the cutouts
    cover the parameter space.
    """
    return not subtract_polytopes(base, cover, solver)
