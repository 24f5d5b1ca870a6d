"""Relevance regions: complements of convex-polytope cutouts.

Figure 8 of the paper specifies the data structure: a relevance region (RR)
is stored as a set of convex polytopes, the *cutouts*, such that a point
belongs to the RR iff it is contained in no cutout (Theorem 4 proves every
RR arising in PWL-RRPA has this shape).  Algorithm 2 gives the two
elementary operations — subtracting polytopes (just add them as cutouts)
and the emptiness check.

This module implements both emptiness strategies:

* ``"difference"`` — subtract all cutouts from the parameter space and test
  whether full-dimensional pieces remain (robust default).
* ``"convexity"`` — the paper's Algorithm 2: only when the union of the
  cutouts is recognized as convex (Bemporad et al.) is a containment check
  against the parameter space performed; otherwise the region is reported
  non-empty.  This strategy is *sound for pruning* (it never declares a
  non-empty region empty) but may keep extra plans; the ablation benchmark
  compares both.

It also implements the third refinement of Section 6.2: each region carries
*relevance points* spread over the parameter space; cutouts delete the
points they contain, and as long as points survive, no LP needs to be
solved to prove non-emptiness.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..errors import DimensionMismatchError
from ..lp import LinearProgramSolver
from .convexity import union_as_polytope
from .difference import subtract_polytope_many, subtract_polytopes
from .polytope import ConvexPolytope

#: Emptiness-check strategies accepted by :meth:`RelevanceRegion.is_empty`.
EMPTINESS_STRATEGIES = ("difference", "convexity")


def default_relevance_points(space: ConvexPolytope,
                             solver: LinearProgramSolver,
                             per_axis: int = 3) -> list[np.ndarray]:
    """Generate relevance points spread across the parameter space.

    Uses an interior-shrunk grid of the bounding box so the points avoid
    the boundary (boundary points are too easily contained in cutouts that
    merely touch the space).
    """
    lows, highs = space.bounding_box(solver)
    axes = []
    for lo, hi in zip(lows, highs):
        span = hi - lo
        axes.append(np.linspace(lo + 0.08 * span, hi - 0.08 * span,
                                per_axis))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    return [p for p in pts if space.contains_point(p)]


class RelevanceRegion:
    """The set ``space \\ (C_1 ∪ ... ∪ C_k)`` for cutout polytopes ``C_i``.

    Args:
        space: The parameter space (a convex polytope, per PWL-MPQ).
        cutouts: Initial cutouts (normally empty — a fresh plan's RR is the
            whole parameter space, Algorithm 1 line 36).
        relevance_points: Optional pre-computed witness points; pass the
            result of :func:`default_relevance_points` to enable the
            LP-avoidance refinement, or ``None`` to disable it.
    """

    def __init__(self, space: ConvexPolytope,
                 cutouts: Iterable[ConvexPolytope] = (),
                 relevance_points: Sequence[np.ndarray] | None = None,
                 initial_pieces: Sequence[ConvexPolytope] | None = None
                 ) -> None:
        self.space = space
        self.cutouts: list[ConvexPolytope] = []
        self._points: list[np.ndarray] | None = (
            [np.asarray(p, dtype=float) for p in relevance_points]
            if relevance_points is not None else None)
        self._known_empty = False
        # Incremental acceleration structure: convex pieces covering the
        # region (None until first materialized by an emptiness check),
        # plus the cutouts not yet applied to it.  Callers that know a
        # convex decomposition of the space (e.g. the cells of a shared
        # partition, ideally cell-tagged) can seed it via
        # ``initial_pieces`` so the first emptiness check skips the full
        # difference computation and cell-tagged cutouts only touch the
        # pieces of their own cell.
        self._residual: list[ConvexPolytope] | None = (
            list(initial_pieces) if initial_pieces is not None else None)
        self._pending: list[ConvexPolytope] = []
        self._cutout_keys: set[frozenset] = set()
        for cut in cutouts:
            self.subtract(cut)

    @property
    def dim(self) -> int:
        """Dimensionality of the parameter space."""
        return self.space.dim

    @property
    def num_cutouts(self) -> int:
        """Number of stored cutouts."""
        return len(self.cutouts)

    @property
    def relevance_points(self) -> list[np.ndarray] | None:
        """Surviving witness points, or ``None`` when the refinement is off."""
        return self._points

    def copy(self) -> RelevanceRegion:
        """Return an independent copy (cutouts list and points are copied)."""
        clone = RelevanceRegion(self.space)
        clone.cutouts = list(self.cutouts)
        clone._points = None if self._points is None else [
            p.copy() for p in self._points]
        clone._known_empty = self._known_empty
        clone._residual = (None if self._residual is None
                           else list(self._residual))
        clone._pending = list(self._pending)
        clone._cutout_keys = set(self._cutout_keys)
        return clone

    # ------------------------------------------------------------------
    # Algorithm 2 operations
    # ------------------------------------------------------------------

    def subtract(self, cutout: ConvexPolytope) -> None:
        """Subtract a convex polytope (procedure ``SubtractPolys``).

        Per Algorithm 2, subtraction just records the polytope as a cutout.
        Surviving relevance points contained in the new cutout are removed.
        """
        if cutout.dim != self.dim:
            raise DimensionMismatchError("cutout dimension mismatch")
        if not cutout.num_constraints:
            # Cutting out the universe empties the region immediately.
            self.cutouts.append(cutout)
            if self._points is not None:
                self._points = []
            self._known_empty = True
            self._residual = []
            self._pending = []
            return
        key = frozenset(cutout._keys)
        if key in self._cutout_keys:
            # A syntactically identical cutout was already subtracted;
            # subtracting it again cannot change the region.
            return
        self._cutout_keys.add(key)
        self.cutouts.append(cutout)
        self._pending.append(cutout)
        if self._points is not None:
            self._points = [p for p in self._points
                            if not cutout.contains_point(p)]

    def subtract_many(self, cutouts: Iterable[ConvexPolytope]) -> None:
        """Subtract several polytopes in sequence."""
        for cut in cutouts:
            self.subtract(cut)

    def contains_point(self, x) -> bool:
        """Return whether ``x`` is in the space and in no cutout."""
        if not self.space.contains_point(x):
            return False
        return not any(cut.contains_point(x) for cut in self.cutouts)

    def is_empty(self, solver: LinearProgramSolver, *,
                 strategy: str = "difference") -> bool:
        """Decide emptiness (function ``IsEmpty`` of Algorithm 2).

        Args:
            solver: LP solver charged for all geometric predicates.
            strategy: ``"difference"`` (exact up to measure zero) or
                ``"convexity"`` (the paper's Algorithm 2; sound but may
                answer "non-empty" for regions that are actually empty when
                the cutout union is non-convex).

        Returns:
            ``True`` when the region contains no full-dimensional subset:
            no leftover piece has a Chebyshev radius above
            ``INTERIOR_EPS``.
        """
        if self._known_empty:
            return True
        if self._points:
            # Refinement 3 (Section 6.2): a surviving relevance point
            # witnesses non-emptiness without solving any LP.
            return False
        if not self.cutouts:
            empty = self.space.is_empty(solver)
            self._known_empty = empty
            return empty
        if strategy == "difference":
            self._refresh_residual(solver)
            if not self._residual:
                self._known_empty = True
            return self._known_empty
        if strategy == "convexity":
            union = union_as_polytope(self.cutouts, solver)
            if union is None:
                return False
            if union.contains_polytope(self.space, solver):
                self._known_empty = True
                return True
            return False
        raise ValueError(f"unknown emptiness strategy: {strategy!r}")

    def _refresh_residual(self, solver: LinearProgramSolver) -> None:
        """Bring the incremental residual decomposition up to date.

        The first call materializes the full difference; later calls only
        subtract the cutouts added since the previous refresh, which keeps
        the amortized cost of repeated emptiness checks low.
        """
        if self._residual is None:
            self._residual = subtract_polytopes(
                self.space, self.cutouts, solver)
            self._pending = []
            return
        while self._pending and self._residual:
            cut = self._pending.pop(0)
            next_pieces: list[ConvexPolytope] = []
            touched: list[ConvexPolytope] = []
            for piece in self._residual:
                if (piece.cell_tag is not None
                        and cut.cell_tag is not None
                        and piece.cell_tag != cut.cell_tag):
                    # Different partition cells: disjoint interiors, the
                    # piece is untouched — no LP needed.
                    next_pieces.append(piece)
                    continue
                if (cut.vertex_hint is not None
                        and cut.cell_tag is not None
                        and piece.cell_tag == cut.cell_tag):
                    # The cut is an entire partition cell and the piece
                    # lies inside that cell: the piece disappears.
                    continue
                # Placeholder keeping the piece's position; the batched
                # subtraction below fills it in.
                next_pieces.append(None)
                touched.append(piece)
            if touched:
                groups = iter(subtract_polytope_many(touched, cut, solver))
                flattened: list[ConvexPolytope] = []
                for entry in next_pieces:
                    if entry is None:
                        flattened.extend(next(groups))
                    else:
                        flattened.append(entry)
                next_pieces = flattened
            self._residual = next_pieces
        if not self._residual:
            self._pending = []

    def witness(self, solver: LinearProgramSolver) -> np.ndarray | None:
        """Return an interior point of the region, or ``None`` when empty."""
        if self._points:
            return self._points[0]
        self._refresh_residual(solver)
        if not self._residual:
            return None
        return self._residual[0].interior_point(solver)

    def remove_redundant_cutouts(self, solver: LinearProgramSolver) -> int:
        """Drop cutouts covered by the union of the remaining cutouts.

        This is the second refinement of Section 6.2.  A cutout is
        redundant when subtracting all *other* cutouts from it leaves
        nothing.  Returns the number of removed cutouts.
        """
        removed = 0
        i = 0
        while i < len(self.cutouts):
            candidate = self.cutouts[i]
            others = self.cutouts[:i] + self.cutouts[i + 1:]
            if others and not subtract_polytopes(candidate, others, solver):
                self.cutouts.pop(i)
                removed += 1
            else:
                i += 1
        if removed:
            # The residual decomposition is still valid (the region is
            # unchanged), but pending cuts may reference removed cutouts;
            # rebuild lazily to stay simple and correct.
            self._residual = None
            self._pending = []
        return removed

    def to_polytopes(self, solver: LinearProgramSolver
                     ) -> list[ConvexPolytope]:
        """Materialize the region as a list of convex pieces."""
        return subtract_polytopes(self.space, self.cutouts, solver)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pts = "off" if self._points is None else len(self._points)
        return (f"RelevanceRegion(dim={self.dim}, "
                f"cutouts={len(self.cutouts)}, points={pts})")

