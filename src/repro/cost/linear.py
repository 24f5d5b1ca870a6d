"""Linear cost-function pieces.

Figure 9 of the paper represents a single-objective PWL cost function as a
set of linear functions, each characterized by the parameter-space region
it applies to (``reg``), a weight vector (``w``) and a scalar base cost
(``b``).  :class:`LinearPiece` is exactly that record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import ConvexPolytope


@dataclass(frozen=True)
class LinearPiece:
    """One linear piece ``x -> w @ x + b`` valid on ``region``.

    Attributes:
        region: Convex polytope in parameter space where the piece applies.
        w: Weight vector (one weight per parameter; Figure 9's ``w``).
        b: Scalar base cost (Figure 9's ``b``).
    """

    region: ConvexPolytope
    w: np.ndarray
    b: float

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float).reshape(-1)
        if w.shape[0] != self.region.dim:
            raise ValueError(
                f"weight dim {w.shape[0]} != region dim {self.region.dim}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", float(self.b))

    @property
    def dim(self) -> int:
        """Parameter-space dimensionality."""
        return self.region.dim

    def evaluate(self, x) -> float:
        """Evaluate ``w @ x + b`` (does not check region membership)."""
        x = np.asarray(x, dtype=float).reshape(-1)
        return float(self.w @ x + self.b)

    def applies_to(self, x) -> bool:
        """Return whether ``x`` lies in this piece's region."""
        return self.region.contains_point(x)

    def shifted(self, delta_w, delta_b: float) -> LinearPiece:
        """Return a piece on the same region with ``w + delta_w, b + delta_b``."""
        return LinearPiece(region=self.region,
                           w=np.asarray(self.w) + np.asarray(delta_w),
                           b=self.b + float(delta_b))

    def restricted(self, region: ConvexPolytope) -> LinearPiece:
        """Return the same linear function on a (smaller) region.

        Paper: Section 6.1's maximum and minimum accumulation split a
        region at the crossing plane; only functions on different
        partitions reach it.
        """
        return LinearPiece(region=region, w=self.w, b=self.b)
