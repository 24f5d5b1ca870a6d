"""Single-objective piecewise-linear cost functions.

A :class:`PiecewiseLinearFunction` is a set of :class:`LinearPiece` objects
whose regions partition (a superset of) the parameter space — the
``Single-Obj. PWL Cost Func.`` entity of Figure 9.  The elementary
operations of Algorithm 3 are implemented here:

* **Addition** (used by ``AccumulateCost``): pairwise intersection of the
  operand pieces' regions; weight vectors and base costs add within each
  non-empty intersection (Figure 11).
* **Maximum / minimum** (the other accumulation functions mentioned in
  Section 6.1): region intersections are further split along the hyperplane
  where the two linear functions cross.
* **Dominance-region computation** is in :mod:`repro.cost.vector` because
  it involves all metrics at once.

Functions built from the same *shared partition* (cost models emit all
operator costs on one simplicial grid) carry a ``partition_token``; adding
two functions with the same token skips the quadratic region-intersection
work and all its LPs.  This fast path changes nothing semantically — it is
the special case where all intersections are exact region matches.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import DimensionMismatchError, EmptyRegionError
from ..geometry import ConvexPolytope
from ..lp import LinearProgramSolver
from .linear import LinearPiece


class PiecewiseLinearFunction:
    """A PWL function represented by linear pieces on convex regions.

    Args:
        dim: Parameter-space dimensionality.
        pieces: The linear pieces.  Their regions are expected to have
            pairwise disjoint interiors and jointly cover the domain of
            interest; this is guaranteed by the constructors used in the
            library and checked (probabilistically) by the test suite.
        partition_token: Hashable identity of the region partition the
            pieces live on, or ``None``.  Two functions with equal tokens
            are guaranteed to have identical region lists (same order).
    """

    __slots__ = ("dim", "pieces", "partition_token")

    def __init__(self, dim: int, pieces: Sequence[LinearPiece],
                 partition_token=None) -> None:
        self.dim = int(dim)
        pieces = tuple(pieces)
        for piece in pieces:
            if piece.dim != self.dim:
                raise DimensionMismatchError(
                    f"piece dim {piece.dim} != function dim {self.dim}")
        if not pieces:
            raise ValueError("a PWL function needs at least one piece")
        self.pieces = pieces
        self.partition_token = partition_token

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def constant(space: ConvexPolytope, value: float,
                 partition_token=None) -> PiecewiseLinearFunction:
        """The constant function ``value`` on ``space``."""
        piece = LinearPiece(region=space, w=np.zeros(space.dim), b=value)
        return PiecewiseLinearFunction(space.dim, [piece], partition_token)

    @staticmethod
    def affine(space: ConvexPolytope, w, b: float,
               partition_token=None) -> PiecewiseLinearFunction:
        """The affine function ``w @ x + b`` on ``space``."""
        piece = LinearPiece(region=space, w=np.asarray(w, dtype=float), b=b)
        return PiecewiseLinearFunction(space.dim, [piece], partition_token)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def piece_at(self, x) -> LinearPiece:
        """Return the first piece whose region contains ``x``.

        Raises:
            EmptyRegionError: If no piece region contains ``x``.
        """
        for piece in self.pieces:
            if piece.applies_to(x):
                return piece
        raise EmptyRegionError(
            f"point {np.asarray(x)} is outside the function's domain")

    def evaluate(self, x) -> float:
        """Evaluate the PWL function at ``x``."""
        return self.piece_at(x).evaluate(x)

    __call__ = evaluate

    # ------------------------------------------------------------------
    # Arithmetic (Algorithm 3 building blocks)
    # ------------------------------------------------------------------

    def _same_partition(self, other: PiecewiseLinearFunction) -> bool:
        return (self.partition_token is not None
                and self.partition_token == other.partition_token
                and len(self.pieces) == len(other.pieces))

    def add(self, other: PiecewiseLinearFunction,
            solver: LinearProgramSolver | None = None
            ) -> PiecewiseLinearFunction:
        """Pointwise sum (the core of ``AccumulateCost``, Algorithm 3).

        On the shared-partition fast path no LP is solved; otherwise each
        pair of piece regions is intersected and pairs with empty
        intersections are dropped (one emptiness LP each, mirroring the
        "check if intersection is empty" step in the pseudo-code).  This
        per-piece-pair loop is the paper's; the cost models build every
        cost on one shared grid, so only functions on different
        partitions reach it.

        Args:
            other: The function to add.
            solver: Required for the general path; unused on the fast path.
        """
        if other.dim != self.dim:
            raise DimensionMismatchError("adding functions of mixed dims")
        if self._same_partition(other):
            pieces = [p1.shifted(p2.w, p2.b)
                      for p1, p2 in zip(self.pieces, other.pieces)]
            return PiecewiseLinearFunction(self.dim, pieces,
                                           self.partition_token)
        if solver is None:
            raise ValueError("solver required for unaligned PWL addition")
        pieces = []
        for p1 in self.pieces:
            for p2 in other.pieces:
                region = p1.region.intersect(p2.region)
                if region.is_empty(solver):
                    continue
                pieces.append(LinearPiece(region=region,
                                          w=np.asarray(p1.w) + p2.w,
                                          b=p1.b + p2.b))
        if not pieces:
            raise EmptyRegionError("sum has no non-empty piece region")
        return PiecewiseLinearFunction(self.dim, pieces)

    def _aligned_extremum(self, other: PiecewiseLinearFunction,
                          take_max: bool
                          ) -> "PiecewiseLinearFunction | None":
        """Try the aligned fast path for max/min.

        On a shared partition, a piece pair whose difference has a uniform
        sign across the piece (decidable at the simplex vertices, since a
        linear function attains its extrema there) resolves to one of the
        two pieces without splitting.  Returns ``None`` when any piece
        pair genuinely crosses inside its region, in which case the
        caller falls back to the general splitting path.
        """
        if not self._same_partition(other):
            return None
        pieces: list[LinearPiece] = []
        for p1, p2 in zip(self.pieces, other.pieces):
            verts = p1.region.vertex_hint
            if verts is None:
                return None
            diff = verts @ (np.asarray(p1.w) - np.asarray(p2.w)) + (
                p1.b - p2.b)
            if np.all(diff >= -1e-12):
                pieces.append(p1 if take_max else p2)
            elif np.all(diff <= 1e-12):
                pieces.append(p2 if take_max else p1)
            else:
                return None  # genuine crossing inside this piece
        return PiecewiseLinearFunction(self.dim, pieces,
                                       self.partition_token)

    def _combine_extremum(self, other: PiecewiseLinearFunction,
                          solver: LinearProgramSolver,
                          take_max: bool) -> PiecewiseLinearFunction:
        """Piecewise max/min: split each region overlap at the crossing plane.

        The general path loops over the piece pairs: one emptiness LP
        per region overlap, then one per half of the overlap on either
        side of the plane where the two linear functions cross.
        """
        if other.dim != self.dim:
            raise DimensionMismatchError("combining functions of mixed dims")
        aligned = self._aligned_extremum(other, take_max)
        if aligned is not None:
            return aligned
        pieces: list[LinearPiece] = []
        for p1 in self.pieces:
            for p2 in other.pieces:
                overlap = p1.region.intersect(p2.region)
                if overlap.is_empty(solver):
                    continue
                diff_w = np.asarray(p1.w) - np.asarray(p2.w)
                diff_b = p2.b - p1.b
                # Region where p1 <= p2: diff_w @ x <= diff_b.
                p1_le = overlap.with_halfspace(diff_w, diff_b)
                p2_le = overlap.with_halfspace(-diff_w, -diff_b)
                winner_on_p1le = p2 if take_max else p1
                winner_on_p2le = p1 if take_max else p2
                if not p1_le.is_empty(solver):
                    pieces.append(winner_on_p1le.restricted(p1_le))
                if not p2_le.is_empty(solver):
                    pieces.append(winner_on_p2le.restricted(p2_le))
        if not pieces:
            raise EmptyRegionError("extremum has no non-empty piece region")
        return PiecewiseLinearFunction(self.dim, pieces)

    def maximum(self, other: PiecewiseLinearFunction,
                solver: LinearProgramSolver) -> PiecewiseLinearFunction:
        """Pointwise maximum (accumulation for parallel branches)."""
        return self._combine_extremum(other, solver, take_max=True)

    def minimum(self, other: PiecewiseLinearFunction,
                solver: LinearProgramSolver) -> PiecewiseLinearFunction:
        """Pointwise minimum.

        Paper: Section 6.1's minimum accumulation; no built-in metric
        accumulates by minimum.
        """
        return self._combine_extremum(other, solver, take_max=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PWL(dim={self.dim}, pieces={len(self.pieces)}, "
                f"partition={self.partition_token!r})")
