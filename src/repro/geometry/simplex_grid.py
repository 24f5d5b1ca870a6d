"""Simplicial partitions of axis-aligned boxes.

The paper's PWL-MPQ variant requires every cost function to be
piecewise-linear over a partition of the parameter space into convex
polytopes.  Real operator cost functions in the Cloud scenario are
*multilinear* in the selectivity parameters (products of selectivities);
they are approximated by interpolation on a simplicial grid:

* The box is divided into ``resolution`` cells per axis.
* Each cell is split into ``d!`` simplices via the Kuhn (Freudenthal)
  triangulation.
* On each simplex, the unique affine function interpolating the target
  function at the ``d+1`` vertices is the PWL piece.

For ``d = 1`` the simplices are intervals; for ``d = 2`` each grid square
yields two triangles, matching the construction sketched in the paper
("PWL functions can approximate arbitrary cost functions up to an
arbitrary degree of detail").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .polytope import ConvexPolytope


@dataclass(frozen=True)
class Simplex:
    """A ``d``-simplex given by its ``d+1`` vertices.

    Attributes:
        vertices: Array of shape ``(d+1, d)``.
    """

    vertices: np.ndarray

    @property
    def dim(self) -> int:
        """Ambient dimension."""
        return int(self.vertices.shape[1])

    def to_polytope(self) -> ConvexPolytope:
        """Return the H-representation of the simplex.

        Each facet is the hyperplane through all vertices but one, oriented
        to contain the omitted vertex.
        """
        verts = self.vertices
        d = self.dim
        normals, offsets = [], []
        for omit in range(d + 1):
            face = np.delete(verts, omit, axis=0)
            base = face[0]
            if d == 1:
                normal = np.array([1.0])
            else:
                # Null space of the face's spanning directions.
                directions = face[1:] - base
                __, __, vh = np.linalg.svd(
                    np.vstack([directions, np.zeros((1, d))]))
                normal = vh[-1]
            offset = float(normal @ base)
            # Orient so the omitted vertex satisfies normal @ x <= offset.
            if float(normal @ verts[omit]) > offset:
                normal, offset = -normal, -offset
            normals.append(normal)
            offsets.append(offset)
        polytope = ConvexPolytope.from_arrays(normals, offsets)
        polytope.vertex_hint = np.array(verts, dtype=float)
        return polytope

    def affine_interpolant(self, values) -> tuple[np.ndarray, float]:
        """Return ``(w, b)`` with ``w @ v_i + b = values[i]`` at each vertex.

        Args:
            values: Function values at the ``d+1`` vertices.

        Returns:
            Weight vector ``w`` and offset ``b`` of the unique affine
            interpolant.
        """
        verts = self.vertices
        d = self.dim
        lhs = np.hstack([verts, np.ones((d + 1, 1))])
        sol = np.linalg.solve(lhs, np.asarray(values, dtype=float))
        return sol[:d], float(sol[d])


def kuhn_triangulation_unit_cell(dim: int) -> list[np.ndarray]:
    """Kuhn triangulation of the unit cube ``[0,1]^dim`` into ``dim!`` simplices.

    For each permutation ``π`` of the axes, one simplex has vertices
    ``0, e_{π(1)}, e_{π(1)}+e_{π(2)}, ...`` — the classic Freudenthal
    construction covering the cube with simplices that share vertices,
    guaranteeing a continuous interpolant across simplex boundaries.
    """
    simplices = []
    for perm in permutations(range(dim)):
        verts = np.zeros((dim + 1, dim))
        current = np.zeros(dim)
        for i, axis in enumerate(perm):
            current = current.copy()
            current[axis] = 1.0
            verts[i + 1] = current
        simplices.append(verts)
    return simplices


def box_simplices(lows, highs, resolution: int) -> list[Simplex]:
    """Triangulate the box ``[lows, highs]`` with ``resolution`` cells per axis.

    Args:
        lows: Per-axis lower bounds.
        highs: Per-axis upper bounds.
        resolution: Number of grid cells per axis (>= 1).

    Returns:
        ``resolution^d * d!`` simplices covering the box.
    """
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    dim = lows.shape[0]
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    cell_templates = kuhn_triangulation_unit_cell(dim)
    widths = (highs - lows) / resolution
    simplices: list[Simplex] = []
    for cell_index in product(range(resolution), repeat=dim):
        origin = lows + widths * np.asarray(cell_index, dtype=float)
        for template in cell_templates:
            verts = origin + template * widths
            simplices.append(Simplex(vertices=verts))
    return simplices
