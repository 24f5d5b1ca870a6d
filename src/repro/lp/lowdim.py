"""Exact closed-form solves for LPs with one or two free variables.

Every LP of a 1-parameter PWL-RRPA run, and the emptiness and
bounding-box LPs of a 2-parameter run, have at most two variables and a
handful of rows.
:func:`solve_lowdim_lists` answers them without a tableau:

* **one variable:** the rows are interval bounds on ``x``; feasibility
  is ``max(lower) <= min(upper)`` and the optimum is an interval end;
* **two variables:** a rotation puts the objective on the first
  coordinate ``u = c @ x / |c|`` (``u = x[0]`` for a zero objective),
  and Fourier–Motzkin elimination of the second coordinate ``v``
  projects the polygon onto an interval of ``u``.  Every pair of a
  lower and an upper bound on ``v`` yields one bound on ``u``; the
  minimum of ``u`` is the largest lower bound, and the optimal ``v``
  is the midpoint of the ``v`` interval there;
* **the Chebyshev LP of an interval** (rows ``[+-1, 1]``, objective
  ``(0, -1)``: the largest ball inside a 1-D polytope) is the two-variable
  case in one pass: the optimum lies where the smallest upper and the
  smallest lower right-hand side meet, and :func:`_solve_interval`
  repeats the two-variable case's floating-point operations there, so
  its ``(status, x, objective)`` equals :func:`_solve_2d`'s bit for bit.

The solver answers only what it can certify the simplex
(:mod:`repro.lp.simplex`) would also conclude, and returns ``None``
otherwise, so the caller falls back to the simplex:

* **feasible:** a candidate point satisfies every row within a
  residual small enough that the simplex's phase-1 sum of violations
  stays far below its infeasibility threshold
  (:data:`~repro.lp.simplex.PHASE1_TOL`, ``1e-7``);
* **infeasible:** the LP stays infeasible with every row relaxed by
  :data:`GUARD_BAND` (in one dimension: the gap between the bounds,
  measured in row units, exceeds it), so every point violates some row
  by more than the simplex tolerates;
* **deferred:** everything in between (the guard band), an objective
  that is unbounded below, non-finite inputs, and optima at vertices
  of nearly parallel rows, whose coordinates are too ill-conditioned
  to promise agreement with the simplex.

It never reports ``"unbounded"``.  Results are plain
``(status, x, objective)`` tuples; :class:`repro.lp.LinearProgramSolver`
wraps them.
"""

from __future__ import annotations

import math

import numpy as np

from .simplex import PHASE1_TOL

#: Rows are relaxed by this much (row units: geometry rows are unit
#: norm) before an empty polygon is called infeasible; a 1-D gap must
#: exceed it.  Ten times the simplex's phase-1 threshold (1e-6).
GUARD_BAND = 10 * PHASE1_TOL

#: Smallest sine of the angle between the two rows that fix a 2-D
#: optimum with a non-zero objective.  Below it the optimum's position
#: carries more rounding error than the 1e-12 objective agreement with
#: the simplex allows, so the LP is deferred.
_MIN_SINE = 1e-3

_INF = math.inf
_INFEASIBLE = ("infeasible", None, None)


def solve_lowdim_lists(costs, rows, rhs) -> tuple | None:
    """Solve ``min c @ x  s.t.  A @ x <= b`` for 1 or 2 free variables.

    ``costs``, ``rows`` and ``rhs`` are ``c``, the rows of ``A`` and
    ``b`` as Python sequences of floats (empty without rows), the form
    in which :class:`repro.lp.LinearProgramSolver` keys and solves every
    LP.

    Returns:
        ``(status, x, objective)`` with status ``"optimal"`` or
        ``"infeasible"`` (``x`` and ``objective`` are ``None`` unless
        optimal), or ``None`` when the verdict is deferred to the
        simplex.
    """
    total = sum(rhs) + sum(costs) + sum(map(sum, rows))
    if not math.isfinite(total):
        return None
    if len(costs) == 1:
        return _solve_1d(costs[0], [row[0] for row in rows], rhs)
    c0, c1 = costs
    if c0 == 0.0 and c1 == -1.0:
        return _solve_interval(c0, c1, rows, rhs)
    return _solve_2d(c0, c1, rows, rhs)


def _solve_1d(cost: float, col: list, rhs) -> tuple | None:
    lo, hi = -_INF, _INF
    lo_norm = hi_norm = 1.0
    zero_violation = 0.0
    for a, b in zip(col, rhs):
        if a > 0.0:
            bound = b / a
            if bound < hi:
                hi, hi_norm = bound, a
        elif a < 0.0:
            bound = b / a
            if bound > lo:
                lo, lo_norm = bound, -a
        elif -b > zero_violation:
            zero_violation = -b
    # Any x violates the two rows behind lo and hi by at least this much
    # in total (a zero row by its own deficit).
    gap = max((lo - hi) * min(lo_norm, hi_norm), zero_violation)
    if gap > 0.0:
        return _INFEASIBLE if gap > GUARD_BAND else None
    if cost > 0.0:
        x = lo
    elif cost < 0.0:
        x = hi
    else:
        x = _pick(lo, hi)
    if not math.isfinite(x):
        return None  # objective unbounded below
    x += 0.0  # -0.0 -> 0.0
    return "optimal", np.array([x]), cost * x


def _solve_interval(c0: float, c1: float, rows, rhs) -> tuple | None:
    """:func:`_solve_2d` of ``max r  s.t.  +-x + r <= b_i`` in one pass.

    The objective is ``(0, -1)`` (either zero sign) and every row must
    be ``(1.0, 1.0)`` or ``(-1.0, 1.0)`` with rows of both signs;
    anything else goes to :func:`_solve_2d`.

    For such rows :func:`_solve_2d` rotates to ``u = -r``, ``v = x``
    (``p = -1``, ``q = +-1`` exactly) and takes ``u`` as the largest
    ``(b_lo + b_up) / -2`` over pairs of a lower (``q = -1``) and an
    upper (``q = 1``) row.  Rounding is monotone, so that maximum is
    the one of the two smallest right-hand sides, ``lo`` and ``up``
    below.  The ``v`` interval at ``u`` is bounded by the same two rows,
    and ``x`` and the objective repeat :func:`_solve_2d`'s expressions
    (a zero's sign inside ``u`` or ``v`` never reaches them: ``+ 0.0``
    clears it).  When the feasibility check fails, :func:`_solve_2d`
    decides, as it would.
    """
    lo = up = _INF
    for row, b in zip(rows, rhs):
        r0, r1 = row
        if r1 != 1.0:
            return _solve_2d(c0, c1, rows, rhs)
        if r0 == 1.0:
            if b < up:
                up = b
        elif r0 == -1.0:
            if b < lo:
                lo = b
        else:
            return _solve_2d(c0, c1, rows, rhs)
    if lo == _INF or up == _INF:
        return _solve_2d(c0, c1, rows, rhs)  # one-sided: deferred there
    u = (lo + up) / -2.0
    if not math.isfinite(u):
        return _solve_2d(c0, c1, rows, rhs)
    v = ((lo + u) / -1.0 + (up + u)) / 2
    x0 = v + 0.0
    x1 = -u + 0.0
    tol = PHASE1_TOL / (10 * max(len(rows), 1))
    if all(r0 * x0 + r1 * x1 - b <= tol for (r0, r1), b in zip(rows, rhs)):
        return "optimal", np.array([x0, x1]), c0 * x0 + c1 * x1
    return _solve_2d(c0, c1, rows, rhs)


def _solve_2d(c0: float, c1: float, rows, rhs) -> tuple | None:
    # Rotate: u = d @ x carries the objective and v = e @ x, for the
    # unit vector d along c (x[0] for a zero objective) and e = (-d1, d0).
    # Then x = u * d + v * e, and each row reads p * u + q * v <= b.
    norm = math.hypot(c0, c1)
    objective = norm > 0.0
    d0, d1 = (c0 / norm, c1 / norm) if objective else (1.0, 0.0)
    p = [r0 * d0 + r1 * d1 for r0, r1 in rows]
    q = [r1 * d0 - r0 * d1 for r0, r1 in rows]

    u_lo, u_hi, sharp, contradiction = _project(p, q, rhs)
    if not contradiction and (sharp or not objective):
        u = u_lo if objective else _pick(u_lo, u_hi)
        if math.isfinite(u):
            v_lo, v_hi = -_INF, _INF
            for pi, qi, bi in zip(p, q, rhs):
                if qi > 0.0:
                    v_hi = min(v_hi, (bi - pi * u) / qi)
                elif qi < 0.0:
                    v_lo = max(v_lo, (bi - pi * u) / qi)
            v = _pick(v_lo, v_hi)
            x0 = u * d0 - v * d1 + 0.0
            x1 = u * d1 + v * d0 + 0.0
            # Summed over the rows, at most a tenth of PHASE1_TOL.
            tol = PHASE1_TOL / (10 * max(len(rows), 1))
            if all(r0 * x0 + r1 * x1 - b <= tol
                   for (r0, r1), b in zip(rows, rhs)):
                return "optimal", np.array([x0, x1]), c0 * x0 + c1 * x1
    # Not certified feasible: infeasible only if it stays empty relaxed.
    u_lo, u_hi, __, contradiction = _project(
        p, q, [b + GUARD_BAND for b in rhs])
    if contradiction or u_lo > u_hi:
        return _INFEASIBLE
    return None


def _project(p: list, q: list, rhs: list) -> tuple:
    """Project ``{(u, v) : p*u + q*v <= rhs}`` onto ``u`` (Fourier–Motzkin).

    Returns ``(u_lo, u_hi, sharp, contradiction)``: the interval of
    ``u``; whether the two rows behind ``u_lo`` meet at an angle whose
    sine is at least :data:`_MIN_SINE` (always so for a row without
    ``v``); and whether some pair of parallel rows (or a zero row)
    admits no point at all.
    """
    u_lo, u_hi = -_INF, _INF
    sharp = True
    contradiction = False
    lows = []
    ups = []
    for pi, qi, bi in zip(p, q, rhs):
        if qi > 0.0:
            ups.append((pi, qi, bi))
        elif qi < 0.0:
            lows.append((pi, qi, bi))
        elif pi > 0.0:
            u_hi = min(u_hi, bi / pi)
        elif pi < 0.0:
            bound = bi / pi
            if bound > u_lo:
                u_lo, sharp = bound, True
        elif bi < 0.0:
            contradiction = True
    for pj, qj, bj in lows:
        for pi, qi, bi in ups:
            # qi * (row j) - qj * (row i) eliminates v.
            k = pj * qi - pi * qj
            r = bj * qi - bi * qj
            if k < 0.0:
                bound = r / k
                if bound > u_lo:
                    u_lo = bound
                    sharp = -k >= (_MIN_SINE * math.hypot(pi, qi)
                                   * math.hypot(pj, qj))
            elif k > 0.0:
                u_hi = min(u_hi, r / k)
            elif r < 0.0:
                contradiction = True
    return u_lo, u_hi, sharp, contradiction


def _pick(lo: float, hi: float) -> float:
    """A representative of ``[lo, hi]``: its midpoint, else a finite end,
    else 0."""
    if lo > -_INF:
        return (lo + hi) / 2 if hi < _INF else lo
    return hi if hi < _INF else 0.0
