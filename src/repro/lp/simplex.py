"""A small dense simplex solver on NumPy, without SciPy.

The paper's implementation used Gurobi.  This module provides a
two-phase simplex written in Python over NumPy arrays; its basis
systems are solved by LAPACK through NumPy's private ``solve1``
gufunc (the kernel behind ``np.linalg.solve``, see ``_basis_solve``).
It serves two purposes:

* the default ``"hybrid"`` backend of :mod:`repro.lp.solver` solves
  every LP the closed form in :mod:`repro.lp.lowdim` does not take with
  it (scipy's HiGHS answers only when it raises), and
* on its own (``backend="simplex"``) it gives the test suite an oracle
  independent of scipy to cross-check LP results.

The solver handles problems of the form::

    minimize    c @ x
    subject to  A @ x <= b
                lo <= x <= hi      (bounds may be ±inf)

via conversion to standard form with slack variables and Bland's rule for
anti-cycling.  It is intentionally simple and dense; the LPs that arise in
PWL-RRPA are tiny (a handful of parameters, dozens of constraints).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import SolverError

_EPS = 1e-9

#: Phase-1 sum of artificial values above which an LP is infeasible
#: (:mod:`repro.lp.lowdim` derives its guard band from it).
PHASE1_TOL = 1e-7

try:  # pragma: no cover - numpy-version dependent import
    # The gufunc behind ``np.linalg.solve``.  Calling it directly skips
    # the wrapper's per-call array/type validation and errstate setup —
    # a measurable win for the tiny basis systems solved thousands of
    # times per optimization run — while producing the *same bits* (it
    # is the very kernel the wrapper invokes).  LAPACK reports a
    # singular system by filling that solution with NaN, which the
    # cheap sum-compare below converts into the wrapper's
    # ``LinAlgError``.  The gufunc also raises NumPy's invalid-value
    # floating-point error for it; :func:`solve_simplex` ignores that
    # error state once per solve, so the expected sentinel does not
    # leak a ``RuntimeWarning`` into callers' output.
    from numpy.linalg import _umath_linalg

    # Probe the private gufunc contract once at import so any numpy
    # relayout (renamed gufunc, changed signature kwargs) lands in the
    # fallback below instead of crashing the first real solve.
    if (_umath_linalg.solve1(np.eye(1), np.ones(1), signature="dd->d")
            != np.ones(1)).any():  # pragma: no cover - contract probe
        raise ImportError("numpy solve1 gufunc probe failed")

    def _basis_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``np.linalg.solve`` for float64 systems, minus wrapper overhead.

        Solves one ``(m, m) @ (m,)`` system and raises
        :class:`numpy.linalg.LinAlgError` when it is singular, like the
        wrapper.
        """
        try:
            out = _umath_linalg.solve1(a, b, signature="dd->d")
        except RuntimeWarning as exc:
            # Under warnings-promoted-to-errors the gufunc's
            # invalid-value warning surfaces here before the NaN check
            # can run; keep the wrapper's contract.
            raise np.linalg.LinAlgError("Singular matrix") from exc
        total = out.sum()
        if total != total:  # NaN marks a singular (or poisoned) slice
            raise np.linalg.LinAlgError("Singular matrix")
        return out
except (ImportError, AttributeError, TypeError):  # pragma: no cover
    # Exercised on numpy relayouts (module, gufunc or kwargs gone).
    def _basis_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Fallback via the public wrapper (identical bits, more overhead)."""
        return np.linalg.solve(a, b)


@dataclass(frozen=True)
class SimplexResult:
    """Outcome of a simplex solve.

    Attributes:
        status: One of ``"optimal"``, ``"infeasible"`` or ``"unbounded"``.
        x: Optimal point (``None`` unless status is ``"optimal"``).
        objective: Optimal objective value (``None`` unless optimal).
    """

    status: str
    x: np.ndarray | None
    objective: float | None

    @property
    def is_optimal(self) -> bool:
        """``True`` when an optimal solution was found."""
        return self.status == "optimal"


def _to_standard_form(c, a_ub, b_ub, bounds):
    """Convert a bounded-variable LP into equality standard form.

    Each free variable ``x`` is split into ``x+ - x-``; finite bounds become
    extra inequality rows.  Returns ``(c', A', b', recover)`` where
    ``recover`` maps a standard-form solution back to the original space.
    """
    n = len(c)
    if all(lo is None and hi is None for lo, hi in bounds):
        # Fast path for the dominant geometry workload: every variable
        # free.  Vectorizes the generic loop below for that case only —
        # same interleaved ``x+ / x-`` column layout, same arithmetic
        # (including the zero-shift subtraction), identical bits.
        c_arr = np.asarray(c, dtype=float)
        a_all = a_ub if a_ub is not None else np.zeros((0, n))
        b_all = b_ub if b_ub is not None else np.zeros(0)
        a_std = np.empty((a_all.shape[0], 2 * n))
        a_std[:, 0::2] = a_all
        a_std[:, 1::2] = -a_all
        c_std = np.empty(2 * n)
        c_std[0::2] = c_arr
        c_std[1::2] = -c_arr
        shift = np.zeros(n)
        b_shifted = b_all - a_all @ shift

        def recover(x_std: np.ndarray) -> np.ndarray:
            return (shift + x_std[0::2]) - x_std[1::2]

        return c_std, a_std, b_shifted, recover, float(c_arr @ shift)

    columns = []  # (index, sign) pairs describing original-variable parts
    shift = np.zeros(n)
    for j in range(n):
        lo, hi = bounds[j]
        if lo is not None and math.isfinite(lo):
            shift[j] = lo
        else:
            shift[j] = 0.0

    extra_rows_a = []
    extra_rows_b = []
    split = []  # True when variable j is split into two columns
    for j in range(n):
        lo, hi = bounds[j]
        lo_f = -math.inf if lo is None else lo
        hi_f = math.inf if hi is None else hi
        split.append(not math.isfinite(lo_f))
        if math.isfinite(hi_f):
            row = np.zeros(n)
            row[j] = 1.0
            extra_rows_a.append(row)
            extra_rows_b.append(hi_f)

    a_all = a_ub if a_ub is not None else np.zeros((0, n))
    b_all = b_ub if b_ub is not None else np.zeros(0)
    if extra_rows_a:
        a_all = np.vstack([a_all, np.array(extra_rows_a)])
        b_all = np.concatenate([b_all, np.array(extra_rows_b)])

    # Shift variables with finite lower bounds so every column is >= 0.
    b_shifted = b_all - a_all @ shift
    c_arr = np.asarray(c, dtype=float)

    for j in range(n):
        if split[j]:
            columns.append((j, +1.0))
            columns.append((j, -1.0))
        else:
            columns.append((j, +1.0))

    num_cols = len(columns)
    a_std = np.zeros((a_all.shape[0], num_cols))
    c_std = np.zeros(num_cols)
    for k, (j, sign) in enumerate(columns):
        a_std[:, k] = sign * a_all[:, j]
        c_std[k] = sign * c_arr[j]

    def recover(x_std: np.ndarray) -> np.ndarray:
        x = np.array(shift, dtype=float)
        for k, (j, sign) in enumerate(columns):
            x[j] += sign * x_std[k]
        return x

    objective_shift = float(c_arr @ shift)
    return c_std, a_std, b_shifted, recover, objective_shift


def _simplex_core(c, a, b):
    """Solve min c@x s.t. a@x <= b, x >= 0 with the two-phase simplex.

    Returns ``(status, x)``.
    """
    num_rows, num_cols = a.shape
    # Make right-hand sides non-negative by multiplying rows by -1 and
    # introducing artificial variables where needed.  Assembled in one
    # pass (same layout and bits as growing the tableau row by row:
    # artificial columns appear in row order after the slack block).
    rhs = b.astype(float).copy()
    negative = rhs < -_EPS
    art_rows = np.flatnonzero(negative)
    total_cols = num_cols + num_rows + art_rows.size
    tableau_a = np.zeros((num_rows, total_cols))
    tableau_a[:, :num_cols] = a
    tableau_a[:, num_cols:num_cols + num_rows] = np.eye(num_rows)
    tableau_a[negative] *= -1.0
    rhs[negative] *= -1.0
    art_cols = num_cols + num_rows + np.arange(art_rows.size)
    tableau_a[art_rows, art_cols] = 1.0
    basis = list(range(num_cols, num_cols + num_rows))
    for row, col in zip(art_rows, art_cols):
        basis[row] = int(col)
    artificial = [int(col) for col in art_cols]

    def run_phase(cost_row):
        """Run the simplex iterations in place; returns False on unbounded."""
        max_iters = 500 * (total_cols + num_rows + 10)
        for _ in range(max_iters):
            # Reduced costs.
            cb = cost_row[basis]
            basis_matrix = tableau_a[:, basis]
            try:
                y = _basis_solve(basis_matrix.T, cb)  # dual estimate
            except np.linalg.LinAlgError as exc:
                raise SolverError("singular basis in simplex") from exc
            reduced = cost_row - y @ tableau_a
            entering = -1
            for j in range(total_cols):
                if j in basis_set:
                    continue
                if reduced[j] < -_EPS:
                    entering = j  # Bland's rule: first improving column
                    break
            if entering < 0:
                return True
            try:
                basis_matrix_inv_col = _basis_solve(
                    basis_matrix, tableau_a[:, entering])
                xb = _basis_solve(basis_matrix, rhs)
            except np.linalg.LinAlgError as exc:  # pragma: no cover
                raise SolverError("singular basis in simplex") from exc
            ratios = []
            for i in range(num_rows):
                if basis_matrix_inv_col[i] > _EPS:
                    ratios.append((xb[i] / basis_matrix_inv_col[i], basis[i], i))
            if not ratios:
                return False
            ratios.sort(key=lambda t: (t[0], t[1]))
            __, __, leaving_row = ratios[0]
            basis_set.discard(basis[leaving_row])
            basis[leaving_row] = entering
            basis_set.add(entering)
        raise SolverError("simplex iteration limit exceeded")

    basis_set = set(basis)

    if artificial:
        phase1_cost = np.zeros(total_cols)
        for j in artificial:
            phase1_cost[j] = 1.0
        bounded = run_phase(phase1_cost)
        if not bounded:
            raise SolverError("phase-1 LP unbounded (should be impossible)")
        try:
            xb = _basis_solve(tableau_a[:, basis], rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis after phase 1") from exc
        value = float(phase1_cost[basis] @ xb)
        if value > PHASE1_TOL:
            return "infeasible", None
        # Drive any remaining artificial variables out of the basis when
        # possible; rows where that fails are redundant and harmless here
        # because their basic value is zero.

    phase2_cost = np.zeros(total_cols)
    phase2_cost[: len(c)] = c
    for j in artificial:
        phase2_cost[j] = 1e7  # big-M keeps artificials at zero
    bounded = run_phase(phase2_cost)
    if not bounded:
        return "unbounded", None
    try:
        xb = _basis_solve(tableau_a[:, basis], rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular final basis") from exc
    x_full = np.zeros(total_cols)
    for i, j in enumerate(basis):
        x_full[j] = xb[i]
    return "optimal", x_full[: len(c)]


def solve_simplex(c, a_ub=None, b_ub=None, bounds=None) -> SimplexResult:
    """Solve ``min c@x  s.t.  a_ub@x <= b_ub,  bounds[j][0] <= x_j <= bounds[j][1]``.

    Args:
        c: Objective coefficients, length ``n``.
        a_ub: Inequality matrix of shape ``(m, n)`` or ``None``.
        b_ub: Inequality right-hand sides of length ``m`` or ``None``.
        bounds: Sequence of ``(lo, hi)`` pairs per variable; ``None`` entries
            mean unbounded on that side.  Defaults to all variables free.

    Returns:
        A :class:`SimplexResult` with status, optimal point and objective.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    if bounds is None:
        bounds = [(None, None)] * n
    if a_ub is not None:
        a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n)
        b_ub = np.asarray(b_ub, dtype=float).reshape(-1)

    c_std, a_std, b_std, recover, obj_shift = _to_standard_form(
        c, a_ub, b_ub, list(bounds))
    # A singular basis is signalled by NaN (see _basis_solve), not by
    # the invalid-value warning.  Scoped once per solve: _basis_solve
    # itself runs about 10^5 times per optimization pass.
    with np.errstate(invalid="ignore"):
        status, x_std = _simplex_core(c_std, a_std, b_std)
    if status != "optimal":
        return SimplexResult(status=status, x=None, objective=None)
    x = recover(x_std)
    return SimplexResult(status="optimal", x=x,
                         objective=float(c @ x))
