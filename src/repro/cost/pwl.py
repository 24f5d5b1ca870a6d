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

from collections.abc import Callable, Iterable, Sequence

import numpy as np

from ..errors import DimensionMismatchError, EmptyRegionError
from ..geometry import ConvexPolytope, LinearConstraint, emptiness_many
from ..lp import LinearProgramSolver
from ..util import scalar_kernels_enabled
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

    @staticmethod
    def from_values_on_partition(regions: Sequence[ConvexPolytope],
                                 weights: Sequence[np.ndarray],
                                 bases: Sequence[float],
                                 partition_token=None
                                 ) -> PiecewiseLinearFunction:
        """Assemble a PWL function from parallel region/weight/base lists."""
        if not (len(regions) == len(weights) == len(bases)):
            raise ValueError("regions, weights and bases lengths differ")
        pieces = [LinearPiece(region=r, w=w, b=b)
                  for r, w, b in zip(regions, weights, bases)]
        return PiecewiseLinearFunction(regions[0].dim, pieces,
                                       partition_token)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    @property
    def num_pieces(self) -> int:
        """Number of linear pieces."""
        return len(self.pieces)

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
        "check if intersection is empty" step in the pseudo-code).  The
        general path sums the coefficient arrays of all piece pairs in
        one NumPy pass and decides the pairwise emptiness LPs in one
        batch (``REPRO_SCALAR_KERNELS=1`` selects the equivalent
        per-piece-pair loop instead; the results are bit-identical).

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
        if not scalar_kernels_enabled():
            return self._add_general_vectorized(other, solver)
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

    def _add_general_vectorized(self, other: PiecewiseLinearFunction,
                                solver: LinearProgramSolver
                                ) -> PiecewiseLinearFunction:
        """Unaligned addition with NumPy coefficient sums and batched LPs.

        Mirrors the scalar general path of :meth:`add` pair for pair: the
        summed weight vectors and base costs of all ``n1 * n2`` piece
        pairs come out of one broadcast addition (bit-identical to the
        per-pair float additions), and the pairwise intersection
        emptiness checks are decided by one batched LP pass instead of
        ``n1 * n2`` sequential solver calls.
        """
        n2 = len(other.pieces)
        w_sum = (np.array([p.w for p in self.pieces])[:, None, :]
                 + np.array([p.w for p in other.pieces])[None, :, :])
        b_sum = (np.array([p.b for p in self.pieces])[:, None]
                 + np.array([p.b for p in other.pieces])[None, :])
        regions = [p1.region.intersect(p2.region)
                   for p1 in self.pieces for p2 in other.pieces]
        empty = emptiness_many(regions, solver)
        pieces = []
        for idx, region in enumerate(regions):
            if empty[idx]:
                continue
            i, j = divmod(idx, n2)
            pieces.append(LinearPiece(region=region, w=w_sum[i, j],
                                      b=b_sum[i, j]))
        if not pieces:
            raise EmptyRegionError("sum has no non-empty piece region")
        return PiecewiseLinearFunction(self.dim, pieces)

    def add_constant(self, value: float) -> PiecewiseLinearFunction:
        """Return this function shifted by a constant."""
        zero = np.zeros(self.dim)
        pieces = [p.shifted(zero, value) for p in self.pieces]
        return PiecewiseLinearFunction(self.dim, pieces,
                                       self.partition_token)

    def scale(self, factor: float) -> PiecewiseLinearFunction:
        """Return this function multiplied by a non-negative constant.

        Raises:
            ValueError: For negative factors (would flip the dominance
                direction and break cost-metric semantics).
        """
        if factor < 0:
            raise ValueError("cost functions cannot be scaled negatively")
        pieces = [p.scaled(factor) for p in self.pieces]
        return PiecewiseLinearFunction(self.dim, pieces,
                                       self.partition_token)

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

        The general path decides its emptiness LPs (overlap feasibility
        and the two crossing-split halves) in batched
        :func:`~repro.geometry.emptiness_many` passes rather than one
        Python solver call per piece pair; ``REPRO_SCALAR_KERNELS=1``
        selects the equivalent per-pair loop (bit-identical results).
        """
        if other.dim != self.dim:
            raise DimensionMismatchError("combining functions of mixed dims")
        aligned = self._aligned_extremum(other, take_max)
        if aligned is not None:
            return aligned
        if not scalar_kernels_enabled():
            return self._combine_extremum_vectorized(other, solver,
                                                     take_max)
        pieces: list[LinearPiece] = []
        for p1 in self.pieces:
            for p2 in other.pieces:
                overlap = p1.region.intersect(p2.region)
                if overlap.is_empty(solver):
                    continue
                diff_w = np.asarray(p1.w) - np.asarray(p2.w)
                diff_b = p2.b - p1.b
                # Region where p1 <= p2: diff_w @ x <= diff_b.
                p1_le = overlap.with_constraint(
                    LinearConstraint.make(diff_w, diff_b))
                p2_le = overlap.with_constraint(
                    LinearConstraint.make(-diff_w, -diff_b))
                winner_on_p1le = p2 if take_max else p1
                winner_on_p2le = p1 if take_max else p2
                if not p1_le.is_empty(solver):
                    pieces.append(winner_on_p1le.restricted(p1_le))
                if not p2_le.is_empty(solver):
                    pieces.append(winner_on_p2le.restricted(p2_le))
        if not pieces:
            raise EmptyRegionError("extremum has no non-empty piece region")
        return PiecewiseLinearFunction(self.dim, pieces)

    def _combine_extremum_vectorized(
            self, other: PiecewiseLinearFunction,
            solver: LinearProgramSolver,
            take_max: bool) -> PiecewiseLinearFunction:
        """Batched general-path max/min, mirroring the scalar loop.

        Round 1 batches the overlap-emptiness LPs of all piece pairs;
        round 2 batches the emptiness LPs of the two crossing-split
        halves of every surviving overlap.  Pieces are appended in the
        scalar loop's order (pair for pair, ``p1 <= p2`` half first), so
        the resulting function is bit-identical.
        """
        pairs = [(p1, p2) for p1 in self.pieces for p2 in other.pieces]
        overlaps = [p1.region.intersect(p2.region) for p1, p2 in pairs]
        overlap_empty = emptiness_many(overlaps, solver)
        halves: list[ConvexPolytope] = []
        survivors: list[tuple[LinearPiece, LinearPiece]] = []
        for (p1, p2), overlap, empty in zip(pairs, overlaps,
                                            overlap_empty):
            if empty:
                continue
            diff_w = np.asarray(p1.w) - np.asarray(p2.w)
            diff_b = p2.b - p1.b
            # Region where p1 <= p2: diff_w @ x <= diff_b.
            halves.append(overlap.with_constraint(
                LinearConstraint.make(diff_w, diff_b)))
            halves.append(overlap.with_constraint(
                LinearConstraint.make(-diff_w, -diff_b)))
            survivors.append((p1, p2))
        half_empty = emptiness_many(halves, solver)
        pieces: list[LinearPiece] = []
        for pair_index, (p1, p2) in enumerate(survivors):
            p1_le, p2_le = halves[2 * pair_index:2 * pair_index + 2]
            winner_on_p1le = p2 if take_max else p1
            winner_on_p2le = p1 if take_max else p2
            if not half_empty[2 * pair_index]:
                pieces.append(winner_on_p1le.restricted(p1_le))
            if not half_empty[2 * pair_index + 1]:
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
        """Pointwise minimum."""
        return self._combine_extremum(other, solver, take_max=False)

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------

    def bounds_on(self, region: ConvexPolytope,
                  solver: LinearProgramSolver) -> tuple[float, float]:
        """Return ``(min, max)`` of the function over ``region``.

        Only pieces whose region intersects ``region`` contribute.  The
        per-piece overlap emptiness checks and min/max objective LPs run
        as two batched :meth:`~repro.lp.LinearProgramSolver.solve_many`
        passes; ``REPRO_SCALAR_KERNELS=1`` selects the equivalent
        per-piece loop (bit-identical results).

        Raises:
            EmptyRegionError: When no piece region intersects ``region``.
        """
        overlaps = [piece.region.intersect(region)
                    for piece in self.pieces]
        if scalar_kernels_enabled():
            empty = [overlap.is_empty(solver) for overlap in overlaps]
        else:
            empty = emptiness_many(overlaps, solver)
        live = [(piece, overlap)
                for piece, overlap, is_empty in zip(self.pieces, overlaps,
                                                    empty)
                if not is_empty]
        if not live:
            raise EmptyRegionError("function has no piece on the region")
        if scalar_kernels_enabled():
            results = []
            for piece, overlap in live:
                results.append(solver.solve(piece.w, overlap._a,
                                            overlap._b, purpose="bounds"))
                results.append(solver.solve(-np.asarray(piece.w),
                                            overlap._a, overlap._b,
                                            purpose="bounds"))
        else:
            problems = []
            for piece, overlap in live:
                problems.append((np.asarray(piece.w, dtype=float),
                                 overlap._a, overlap._b, None))
                problems.append((-np.asarray(piece.w, dtype=float),
                                 overlap._a, overlap._b, None))
            results = solver.solve_many(problems, purpose="bounds")
        lo, hi = np.inf, -np.inf
        bounded = False
        for index, (piece, __) in enumerate(live):
            res_min, res_max = results[2 * index:2 * index + 2]
            if res_min.is_optimal:
                lo = min(lo, res_min.objective + piece.b)
                bounded = True
            if res_max.is_optimal:
                hi = max(hi, -res_max.objective + piece.b)
                bounded = True
        if not bounded:
            # Overlaps exist but no LP was optimal (e.g. an unbounded
            # region in both objective directions): (inf, -inf) is not a
            # usable interval.
            raise EmptyRegionError(
                "function has no bounded piece on the region")
        return float(lo), float(hi)

    def map_pieces(self, fn: Callable[[LinearPiece], LinearPiece]
                   ) -> PiecewiseLinearFunction:
        """Apply ``fn`` to every piece, keeping the partition token."""
        return PiecewiseLinearFunction(self.dim,
                                       [fn(p) for p in self.pieces],
                                       self.partition_token)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PWL(dim={self.dim}, pieces={len(self.pieces)}, "
                f"partition={self.partition_token!r})")


def pwl_sum(functions: Iterable[PiecewiseLinearFunction],
            solver: LinearProgramSolver | None = None
            ) -> PiecewiseLinearFunction:
    """Sum several PWL functions left to right."""
    functions = list(functions)
    if not functions:
        raise ValueError("pwl_sum of no functions")
    total = functions[0]
    for f in functions[1:]:
        total = total.add(f, solver)
    return total
