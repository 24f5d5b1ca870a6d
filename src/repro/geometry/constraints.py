"""Linear constraints (halfspaces) in parameter space.

A constraint represents the closed halfspace ``{x : a @ x <= b}``.  The
paper's data structures (Figures 3 and 8) build convex polytopes as finite
intersections of such halfspaces.  Polytopes store them as rows of
``(A, b)`` arrays; this module provides the row normalizer and the dedupe
key every row goes through (:func:`normalize_rows`, :func:`row_keys`) and
:class:`LinearConstraint`, one normalized row as an object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatchError

#: Numerical tolerance used for constraint comparisons throughout geometry.
GEOMETRY_EPS = 1e-8


@dataclass(frozen=True)
class LinearConstraint:
    """A closed halfspace ``a @ x <= b``.

    The coefficient vector is stored normalized (unit Euclidean norm) so
    that syntactic comparison and de-duplication of constraints behaves
    geometrically: two constraints describing the same halfspace compare
    equal after normalization.

    Attributes:
        a: Normalized coefficient vector (read-only numpy array).
        b: Right-hand side after normalization.
    """

    a: np.ndarray
    b: float

    @staticmethod
    def make(a, b: float) -> LinearConstraint:
        """Create a normalized constraint ``a @ x <= b``.

        Args:
            a: Coefficient vector (any sequence of floats, not all zero
                unless representing a trivial constraint).
            b: Right-hand side.

        Returns:
            The normalized constraint.  A zero coefficient vector is kept
            as-is and represents either the full space (``b >= 0``) or the
            empty set (``b < 0``).
        """
        rows, rhs = normalize_rows(np.reshape(a, (1, -1)), [b])
        vec = rows[0]
        vec.setflags(write=False)
        return LinearConstraint(a=vec, b=float(rhs[0]))

    @property
    def dim(self) -> int:
        """Dimensionality of the ambient space."""
        return int(self.a.shape[0])

    def is_trivial(self) -> bool:
        """``True`` for the degenerate zero-coefficient constraint ``0 <= b``, b>=0."""
        return bool(np.all(np.abs(self.a) <= GEOMETRY_EPS)
                    and self.b >= -GEOMETRY_EPS)

    def is_infeasible_trivial(self) -> bool:
        """``True`` for the degenerate constraint ``0 <= b`` with ``b < 0``."""
        return bool(np.all(np.abs(self.a) <= GEOMETRY_EPS)
                    and self.b < -GEOMETRY_EPS)

    def contains(self, x, tol: float = GEOMETRY_EPS) -> bool:
        """Return whether point ``x`` satisfies the constraint (within ``tol``)."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"point dim {x.shape[0]} != constraint dim {self.dim}")
        return bool(float(self.a @ x) <= self.b + tol)

    def slack(self, x) -> float:
        """Return ``b - a @ x`` (positive inside, negative outside)."""
        x = np.asarray(x, dtype=float).reshape(-1)
        return float(self.b - self.a @ x)

    def negation(self) -> LinearConstraint:
        """Return the closed complement halfspace ``a @ x >= b``.

        The complement of an open halfspace is closed; we return the
        *closure* ``-a @ x <= -b``, which overlaps the original on the
        boundary hyperplane.  Callers that need a strict complement handle
        the measure-zero overlap via interior-emptiness tolerances (see
        docs/tolerances.md, "Closed dominance regions").
        """
        return LinearConstraint.make(-self.a, -self.b)

    def same_halfspace(self, other: LinearConstraint,
                       tol: float = 1e-6) -> bool:
        """Return whether two normalized constraints describe the same halfspace."""
        if self.dim != other.dim:
            return False
        return bool(np.allclose(self.a, other.a, atol=tol)
                    and abs(self.b - other.b) <= tol)

    def key(self, decimals: int = 9) -> tuple:
        """Hashable rounding-based key for de-duplication inside polytopes."""
        return row_keys(self.a[None, :], [self.b], decimals)[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = " + ".join(f"{coef:.3g}*x{i}"
                           for i, coef in enumerate(self.a)
                           if abs(coef) > GEOMETRY_EPS)
        terms = terms or "0"
        return f"<{terms} <= {self.b:.3g}>"


def normalize_rows(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Scale every row of ``A @ x <= b`` to a unit-norm normal.

    The one normalizer behind :meth:`LinearConstraint.make`,
    :meth:`ConvexPolytope.from_arrays <repro.geometry.ConvexPolytope.from_arrays>`,
    ``box``, ``with_halfspace``, the simplex grid and plan-set decoding.
    Rows whose norm is at most :data:`GEOMETRY_EPS` are returned as they
    are: they describe the full space or the empty set.

    Each row's norm equals ``np.linalg.norm(row)`` of that row alone bit
    for bit: ``norm`` of a vector is ``sqrt(dot(row, row))``, and the
    stacked ``(m, 1, n) @ (m, n, 1)`` product computes every row's
    ``dot`` the same way.  ``np.linalg.norm(A, axis=1)`` and ``einsum``
    sum the squares differently and disagree in the last bit on about
    8% of 2-column rows, which would move dedupe keys, LP inputs and
    plan-set digests.

    Args:
        a: Coefficients, shape ``(m, n)``.
        b: Right-hand sides, length ``m``.

    Returns:
        New ``(A, b)`` float arrays with normalized rows.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float).reshape(-1)
    norms = np.sqrt((a[:, None, :] @ a[:, :, None]).reshape(-1))
    # Dividing by 1.0 leaves a row's bits as they are.
    norms = np.where(norms > GEOMETRY_EPS, norms, 1.0)
    a /= norms[:, None]
    b /= norms
    return a, b


def row_keys(a, b, decimals: int = 9) -> list[tuple]:
    """Rounding-based dedupe key of every row of ``A @ x <= b``.

    Row ``i``'s key is ``(tuple(np.round(a[i], decimals)),
    round(b[i], decimals))``, the key :meth:`LinearConstraint.key` gives
    the same row: two rows with equal keys are one halfspace to the
    polytopes that hold them.
    """
    return [(tuple(row), round(value, decimals))
            for row, value in zip(
                np.asarray(a, dtype=float).round(decimals).tolist(),
                np.asarray(b, dtype=float).tolist())]
