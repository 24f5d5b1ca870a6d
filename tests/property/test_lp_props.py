"""Property-based tests (hypothesis) for the LP layer: the memo key, the
interval Chebyshev form and list-fed requests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lp import LinearProgramSolver, LPStats


def reference_key(c, a_ub, b_ub, bounds) -> tuple:
    """The memo key as it was computed from arrays: rows ``[A | b]``
    sorted by ``np.lexsort`` and dumped with ``tobytes()``.  Kept
    test-only; the list-built key must equal it byte for byte."""
    if a_ub is None:
        rows_key = b""
    else:
        rows = np.hstack([a_ub, b_ub[:, None]])
        order = np.lexsort(rows.T[::-1])
        rows_key = rows[order].tobytes()
    return (c.shape[0], c.tobytes(), rows_key, tuple(map(tuple, bounds)))


def solver_key(c, a_ub, b_ub, bounds) -> tuple:
    """The key :class:`LinearProgramSolver` memoizes an LP under, and
    the inputs as arrays, with the bounds it defaults to."""
    solver = LinearProgramSolver(stats=LPStats())
    key = solver._key(solver._prepare(c, a_ub, b_ub, bounds))
    if bounds is None:
        bounds = [(None, None)] * len(c)
    return key, (np.asarray(c, dtype=float), a_ub, b_ub, bounds)


def as_rows(c, a_ub, b_ub):
    """The LP as the geometry layer hands it in: float tuples."""
    if a_ub is None:
        return tuple(c.tolist()), None, None
    return (tuple(c.tolist()), tuple(map(tuple, a_ub.tolist())),
            tuple(b_ub.tolist()))


#: Few distinct values, so rows repeat, tie in leading columns and hold
#: zeros of both signs.
values = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 1e-9, 3.0))
finite = values | st.floats(-1e6, 1e6, allow_nan=False,
                            allow_infinity=False)
non_finite = st.sampled_from((math.inf, -math.inf, math.nan))


def _flip_zero_signs(row: list) -> list:
    return [-v if v == 0.0 else v for v in row]


@st.composite
def lps(draw, entries=finite):
    """``(c, A, b, bounds)`` with 1-3 columns and 0-16 rows, mixing
    fresh rows, exact duplicates, rows equal up to the sign of a zero
    and rows that differ from an earlier one only in ``b``."""
    n = draw(st.integers(1, 3))
    rows: list[list] = []
    rhs: list = []
    for __ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(("fresh", "duplicate", "zero_sign",
                                     "other_b")))
        if kind == "fresh" or not rows:
            rows.append(draw(st.lists(entries, min_size=n, max_size=n)))
            rhs.append(draw(entries))
            continue
        j = draw(st.integers(0, len(rows) - 1))
        if kind == "duplicate":
            rows.append(list(rows[j]))
            rhs.append(rhs[j])
        elif kind == "zero_sign":
            rows.append(_flip_zero_signs(rows[j]))
            rhs.append(-rhs[j] if rhs[j] == 0.0 else rhs[j])
        else:
            rows.append(list(rows[j]))
            rhs.append(draw(entries))
    c = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    bound = st.none() | st.sampled_from((0.0, -1.0, 1.0, 2.5))
    bounds = draw(st.none() | st.lists(st.tuples(bound, bound),
                                       min_size=n, max_size=n))
    a = np.array(rows, dtype=float).reshape(len(rows), n) if rows else None
    b = np.array(rhs, dtype=float) if rows else None
    return c, a, b, bounds


class TestMemoKey:
    @settings(max_examples=300, deadline=None)
    @given(lps())
    def test_equals_array_key_bytewise(self, lp):
        key, (c, a, b, bounds) = solver_key(*lp)
        assert key == reference_key(c, a, b, bounds)
        # Rows handed in as float tuples key the same bytes.
        c, a, b, bounds = lp
        assert solver_key(*as_rows(c, a, b), bounds)[0] == key

    @settings(max_examples=200, deadline=None)
    @given(lps(entries=finite | non_finite))
    def test_non_finite_rows_keep_their_bytes(self, lp):
        """With inf or NaN the row order may differ from ``lexsort``'s,
        but the key still holds every row's exact bytes, so LPs with
        different rows never share a key."""
        key, (c, a, b, bounds) = solver_key(*lp)
        expected = reference_key(c, a, b, bounds)
        assert key[0] == expected[0] and key[1] == expected[1]
        assert key[3] == expected[3]
        width = 8 * (c.shape[0] + 1)
        chunks = sorted(key[2][i:i + width]
                        for i in range(0, len(key[2]), width))
        if a is None:
            assert chunks == []
        else:
            rows = np.hstack([a, b[:, None]])
            assert chunks == sorted(row.tobytes() for row in rows)

    def test_row_order_and_sign_of_zero(self):
        c = np.zeros(2)
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -0.0]])
        b = np.array([1.0, 2.0, 1.0])
        key, __ = solver_key(c, a, b, None)
        flipped, __ = solver_key(c, a[::-1], b[::-1], None)
        # Equal rows keep their input order: the two keys hold the same
        # rows, but 0.0 and -0.0 in swapped places, as lexsort does.
        assert key != flipped
        assert key == reference_key(c, a, b, [(None, None)] * 2)
        assert flipped == reference_key(c, a[::-1], b[::-1],
                                        [(None, None)] * 2)


# ----------------------------------------------------------------------
# The interval Chebyshev LP against the two-variable closed form
# ----------------------------------------------------------------------

#: Right-hand sides: few distinct values, so intervals touch, repeat and
#: come out empty; zeros of both signs; and wide floats.
sides = (st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.0, 1e-9, -1e-9, 1e-300))
         | st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@st.composite
def intervals(draw):
    """Chebyshev rows ``[+-1, 1] @ (x, r) <= b`` of a 1-D polytope:
    upper (``+1``) and lower (``-1``) bounds in any order, possibly
    one-sided, touching (``b_up == -b_lo``), duplicated or empty, and
    now and then a row of another shape."""
    rows, rhs = [], []
    for __ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("upper", "lower", "touching",
                                     "duplicate", "other")))
        if kind == "duplicate" and rows:
            j = draw(st.integers(0, len(rows) - 1))
            rows.append(rows[j])
            rhs.append(rhs[j])
        elif kind == "touching":
            b = draw(sides)
            rows += [(1.0, 1.0), (-1.0, 1.0)]
            rhs += [b, -b]
        elif kind == "other":
            rows.append(draw(st.sampled_from(((0.5, 1.0), (1.0, 0.5),
                                              (0.0, 1.0), (-1.0, 0.0)))))
            rhs.append(draw(sides))
        else:
            rows.append((1.0, 1.0) if kind == "upper" else (-1.0, 1.0))
            rhs.append(draw(sides))
    return tuple(rows), tuple(rhs)


def same_answer(left, right) -> bool:
    """Equal closed-form answers, bit for bit."""
    if left is None or right is None:
        return left is right
    (status, x, objective), (other, y, theirs) = left, right
    if status != other:
        return False
    if x is None:
        return y is None and objective is None and theirs is None
    return (x.tobytes() == y.tobytes()
            and np.float64(objective).tobytes()
            == np.float64(theirs).tobytes())


class TestIntervalChebyshev:
    @settings(max_examples=500, deadline=None)
    @given(intervals(), st.sampled_from((0.0, -0.0)))
    def test_equals_two_variable_form(self, lp, c0):
        from repro.lp.lowdim import _solve_2d, _solve_interval
        rows, rhs = lp
        assert same_answer(_solve_interval(c0, -1.0, rows, rhs),
                           _solve_2d(c0, -1.0, rows, rhs))

    def test_answers_without_the_general_form(self, monkeypatch):
        """A two-sided interval is answered in the one pass (and its
        radius is half the length)."""
        from repro.lp import lowdim

        def no_general_form(*args):
            raise AssertionError("deferred to _solve_2d")

        rows = ((1.0, 1.0), (-1.0, 1.0), (1.0, 1.0))
        rhs = (0.75, -0.25, 0.9)
        monkeypatch.setattr(lowdim, "_solve_2d", no_general_form)
        status, x, objective = lowdim.solve_lowdim_lists((0.0, -1.0), rows,
                                                         rhs)
        assert status == "optimal"
        assert x.tolist() == [0.5, 0.25] and objective == -0.25


# ----------------------------------------------------------------------
# List-fed requests against array-fed ones
# ----------------------------------------------------------------------

def _outcome(solver, lp) -> tuple:
    """What one request produced: the result (or the error) and the
    solver's accounting."""
    try:
        result = solver.solve(*lp, purpose="prop")
        answer = (result.status,
                  None if result.x is None else result.x.tobytes(),
                  None if result.objective is None
                  else np.float64(result.objective).tobytes())
    except Exception as error:  # compared below, not hidden
        answer = (type(error).__name__,)
    stats = solver.stats
    return answer, (stats.solved, stats.infeasible, stats.unbounded,
                    stats.lowdim_deferred, stats.cache_hits,
                    stats.by_purpose())


#: LPs the closed form defers: a gap inside the guard band, in one and
#: in two variables, and an objective unbounded below.
DEFERRED = [
    (np.zeros(1), np.array([[1.0], [-1.0]]), np.array([0.3, -0.3 - 5e-7]),
     None),
    (np.zeros(2), np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                            [0.0, -1.0]]),
     np.array([0.3, -0.3 - 5e-7, 1.0, 1.0]), None),
    (-np.ones(2), -np.eye(2), np.zeros(2), None),
]


class TestListFedRequests:
    @pytest.mark.parametrize("backend", ["hybrid", "simplex", "scipy"])
    @settings(max_examples=60, deadline=None)
    @given(lp=lps())
    def test_equal_to_array_fed(self, backend, lp):
        c, a, b, bounds = lp
        listed = (*as_rows(c, a, b), bounds)
        assert solver_key(*listed)[0] == solver_key(*lp)[0]
        outcomes = []
        for request in (lp, listed):
            # Twice each: a solve, then a memo hit.
            solver = LinearProgramSolver(stats=LPStats(), backend=backend,
                                         cache_size=8)
            outcomes.append([_outcome(solver, request) for __ in range(2)])
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("backend", ["hybrid", "simplex", "scipy"])
    @pytest.mark.parametrize("index", range(len(DEFERRED)))
    def test_deferrals_equal_to_array_fed(self, backend, index):
        lp = DEFERRED[index]
        listed = (*as_rows(*lp[:3]), lp[3])
        outcomes = [_outcome(LinearProgramSolver(stats=LPStats(),
                                                 backend=backend), request)
                    for request in (lp, listed)]
        assert outcomes[0] == outcomes[1]
        if backend == "hybrid":
            assert outcomes[0][1][3] == 1  # deferred, then solved
