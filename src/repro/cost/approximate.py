"""PWL approximation of nonlinear cost functions.

Operator cost formulas in the Cloud scenario are polynomials in the
selectivity parameters (see :mod:`repro.cost.multilinear`).  PWL-MPQ
requires PWL cost functions; following the paper ("PWL functions can
approximate arbitrary cost functions up to an arbitrary degree of detail",
Sections 1.2 and 6.1), nonlinear functions are interpolated on a simplicial
grid of the parameter box:

* Affine polynomials are converted exactly (single piece covering the box).
* Nonlinear functions are interpolated at the vertices of a Kuhn
  triangulation with ``resolution`` cells per axis; the interpolant is
  continuous across pieces and exact at all grid vertices.

A :class:`SharedPartition` caches the simplices/polytopes of a given
``(box, resolution)`` so every cost function produced by one cost model
lives on the *same* region list — enabling the LP-free aligned fast paths
in :mod:`repro.cost.pwl` and :mod:`repro.cost.vector`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

import numpy as np

from ..geometry import ConvexPolytope, Simplex, box_simplices
from .linear import LinearPiece
from .multilinear import ParamPolynomial
from .pwl import PiecewiseLinearFunction
from .vector import MultiObjectivePWL


class SharedPartition:
    """A reusable simplicial partition of an axis-aligned parameter box.

    Args:
        lows: Per-axis lower bounds of the parameter box.
        highs: Per-axis upper bounds.
        resolution: Grid cells per axis (>= 1).
    """

    def __init__(self, lows, highs, resolution: int) -> None:
        self.lows = tuple(float(v) for v in lows)
        self.highs = tuple(float(v) for v in highs)
        self.resolution = int(resolution)
        self.dim = len(self.lows)
        if self.dim == 0:
            raise ValueError("parameter space must have >= 1 dimension")
        self.simplices: list[Simplex] = box_simplices(
            self.lows, self.highs, self.resolution)
        self.regions: list[ConvexPolytope] = [s.to_polytope()
                                              for s in self.simplices]
        #: Hashable identity used as PWL partition token (set before the
        #: cell tags so they can reference it).
        self.token = ("partition", self.lows, self.highs, self.resolution)
        for index, region in enumerate(self.regions):
            region.cell_tag = (self.token, index)
        self.space: ConvexPolytope = ConvexPolytope.box(self.lows,
                                                        self.highs)

    def interpolate(self, func: Callable[[np.ndarray], float]
                    ) -> PiecewiseLinearFunction:
        """Interpolate an arbitrary scalar function onto the partition."""
        pieces = []
        for simplex, region in zip(self.simplices, self.regions):
            values = [float(func(v)) for v in simplex.vertices]
            w, b = simplex.affine_interpolant(values)
            pieces.append(LinearPiece(region=region, w=w, b=b))
        return PiecewiseLinearFunction(self.dim, pieces, self.token)

    def from_polynomial(self, poly: ParamPolynomial
                        ) -> PiecewiseLinearFunction:
        """Convert a polynomial: exact when affine, interpolated otherwise.

        Even the exact affine case is emitted on the shared partition (same
        linear function on every simplex) so downstream operations stay on
        the aligned fast path.
        """
        if poly.num_params != self.dim:
            raise ValueError("polynomial parameter count mismatch")
        if poly.is_affine():
            w, b = poly.affine_parts()
            pieces = [LinearPiece(region=r, w=w, b=b) for r in self.regions]
            return PiecewiseLinearFunction(self.dim, pieces, self.token)
        return self.interpolate(poly.evaluate)

    def vector_from_polynomials(self, polys: Mapping[str, ParamPolynomial]
                                ) -> MultiObjectivePWL:
        """Convert one polynomial per metric into a multi-objective PWL."""
        return MultiObjectivePWL({name: self.from_polynomial(p)
                                  for name, p in polys.items()})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SharedPartition(dim={self.dim}, "
                f"resolution={self.resolution}, "
                f"regions={len(self.regions)})")
