"""Property-based tests (hypothesis) for the LP layer's memo key."""

from __future__ import annotations

import math

import numpy as np
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
    the prepared arrays it was built from."""
    solver = LinearProgramSolver(stats=LPStats())
    prepared = solver._prepare(c, a_ub, b_ub, bounds)
    return solver._key(prepared), prepared


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
        key, (c, a, b, bounds, *__) = solver_key(*lp)
        assert key == reference_key(c, a, b, bounds)

    @settings(max_examples=200, deadline=None)
    @given(lps(entries=finite | non_finite))
    def test_non_finite_rows_keep_their_bytes(self, lp):
        """With inf or NaN the row order may differ from ``lexsort``'s,
        but the key still holds every row's exact bytes, so LPs with
        different rows never share a key."""
        key, (c, a, b, bounds, *__) = solver_key(*lp)
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
