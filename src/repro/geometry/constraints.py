"""Linear constraints (halfspaces) in parameter space.

A constraint is the closed halfspace ``{x : a @ x <= b}``.  The paper's
data structures (Figures 3 and 8) build convex polytopes as finite
intersections of such halfspaces.  A polytope stores each one as a
normalized row of ``A @ x <= b``; this module provides the normalizer
and the dedupe key every row goes through (:func:`normalize_rows`,
:func:`row_keys`).
"""

from __future__ import annotations

import numpy as np

#: Numerical tolerance used for constraint comparisons throughout geometry.
GEOMETRY_EPS = 1e-8


def normalize_rows(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Scale every row of ``A @ x <= b`` to a unit-norm normal.

    The one normalizer behind
    :meth:`ConvexPolytope.from_arrays <repro.geometry.ConvexPolytope.from_arrays>`,
    ``box``, ``with_halfspace``, the dominance rows of
    :mod:`repro.cost.vector`, the simplex grid and plan-set decoding.
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
    round(b[i], decimals))``: two rows with equal keys are one halfspace
    to the polytopes that hold them.
    """
    return [(tuple(row), round(value, decimals))
            for row, value in zip(
                np.asarray(a, dtype=float).round(decimals).tolist(),
                np.asarray(b, dtype=float).tolist())]
