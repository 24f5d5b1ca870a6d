"""Convex polytopes in H-representation.

A :class:`ConvexPolytope` is the intersection of finitely many closed
halfspaces (Figure 3 in the paper).  This is the representation PWL-RRPA
uses for linear regions of cost functions, dominance regions and relevance
region cutouts.  All non-trivial predicates (emptiness, containment,
redundancy) are decided by linear programs routed through a
:class:`repro.lp.LinearProgramSolver`, so they are counted in the LP
statistics — reproducing the paper's "#solved linear programs" metric.
"""

from __future__ import annotations

import functools
import math
from itertools import chain, combinations
from collections.abc import Iterable, Sequence

import numpy as np

from ..errors import DimensionMismatchError, EmptyRegionError
from ..lp import LinearProgramSolver
from .constraints import (GEOMETRY_EPS, LinearConstraint, normalize_rows,
                          row_keys)

#: Chebyshev radius below which a polytope is treated as lower-dimensional
#: (i.e. "empty up to measure zero") by interior-emptiness checks.
INTERIOR_EPS = 1e-7

# A *row block* is ``(lhs, rhs, keys, infeasible)``: normalized rows
# without trivially-satisfied ones, as a tuple of coefficient tuples and
# a tuple of right-hand sides (Python floats), their dedupe keys
# (:func:`row_keys`) and whether any row is the trivially-infeasible
# ``0 @ x <= b < 0``.  Every polytope is one block whose keys are
# distinct; it is built by merging blocks in ``ConvexPolytope.__init__``.
# When more than one block is merged, the first is a polytope's own
# block (``_rows()``), so its keys are distinct.

#: The block of a trivially satisfied row: it adds nothing.
_NO_ROWS = ((), (), (), False)


@functools.cache
def _zero_objective(dim: int) -> tuple:
    """The objective of every emptiness LP, shared per dimension."""
    return (0.0,) * dim


@functools.cache
def _chebyshev_objective(dim: int) -> tuple:
    """``maximize r`` over ``(x, r)``: one objective per dimension,
    shared by every Chebyshev LP."""
    return (0.0,) * dim + (-1.0,)


def _zero_rows(a: np.ndarray, b: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """``(trivial, infeasible)`` masks of the zero-coefficient rows."""
    zero = (np.abs(a) <= GEOMETRY_EPS).all(axis=1)
    return zero & (b >= -GEOMETRY_EPS), zero & (b < -GEOMETRY_EPS)


def _infeasible_row(row: tuple, value: float) -> bool:
    """:func:`_zero_rows`' infeasible test of one stored row."""
    return (all(abs(coef) <= GEOMETRY_EPS for coef in row)
            and value < -GEOMETRY_EPS)


def _keyed(a: np.ndarray, b: np.ndarray) -> tuple:
    """The row block of normalized ``(A, b)`` arrays."""
    trivial, infeasible = _zero_rows(a, b)
    if trivial.any():
        keep = ~trivial
        a, b, infeasible = a[keep], b[keep], infeasible[keep]
    return (tuple(map(tuple, a.tolist())), tuple(b.tolist()),
            row_keys(a, b), bool(infeasible.any()))


def _round_key(x: float) -> float:
    """``np.round(x, 9)`` of one float, bit for bit.

    NumPy rounds as ``rint(x * 1e9) / 1e9`` (half to even, keeping the
    sign of a zero); Python's ``round(x, 9)`` rounds the decimal value
    instead, which can differ in the last bit.
    """
    if x == 1.0 or x == -1.0:
        return x
    y = x * 1e9
    try:
        whole = round(y)
    except (OverflowError, ValueError):  # inf or nan: rint keeps it
        return y / 1e9
    return whole / 1e9 if whole else math.copysign(0.0, y)


def _halfspace_1d(a: float, b: float) -> tuple:
    """The row block of the 1-D halfspace ``a * x <= b``.

    Equal to ``_keyed(*normalize_rows([[a]], [b]))`` bit for bit, in
    floats: in one dimension the norm is ``sqrt(a * a)``, one product,
    so every step is one IEEE operation that NumPy and Python round
    alike.
    """
    norm = math.sqrt(a * a)
    if norm > GEOMETRY_EPS:
        a, b = a / norm, b / norm
    zero = abs(a) <= GEOMETRY_EPS
    if zero and b >= -GEOMETRY_EPS:
        return _NO_ROWS
    return (((a,),), (b,), (((_round_key(a),), round(b, 9)),),
            zero and b < -GEOMETRY_EPS)


def _fit_width(dim: int, rows) -> np.ndarray:
    """Stack normalized rows into an ``(m, dim)`` array.

    A zero-coefficient row of another width (trivially satisfied or
    trivially infeasible whatever the dimension) becomes a zero row of
    width ``dim``.

    Raises:
        DimensionMismatchError: For any other row whose width is not
            ``dim``.
    """
    if all(len(row) == dim for row in rows):
        return np.array(rows, dtype=float).reshape(len(rows), dim)
    out = np.zeros((len(rows), dim))
    for i, row in enumerate(rows):
        row = np.asarray(row, dtype=float)
        if row.shape[0] == dim:
            out[i] = row
        elif not np.all(np.abs(row) <= GEOMETRY_EPS):
            raise DimensionMismatchError(
                f"constraint dim {row.shape[0]} != polytope dim {dim}")
    return out


def _merge(blocks) -> tuple:
    """Concatenate row blocks, keeping the first row of every key.

    Of two or more blocks the first is a polytope's own, whose keys are
    distinct (see the row-block note above), so it is taken whole.
    """
    seen: set[tuple] = set()
    parts, keys = [], []
    infeasible = False
    if len(blocks) > 1:
        (lhs, rhs, own_keys, infeasible), *blocks = blocks
        if own_keys:
            parts.append((lhs, rhs))
            keys.extend(own_keys)
            seen.update(own_keys)
    for lhs, rhs, block_keys, block_infeasible in blocks:
        keep = [i for i, key in enumerate(block_keys)
                if key not in seen and not seen.add(key)]
        if not keep:
            continue
        if len(keep) < len(block_keys):
            lhs = tuple(lhs[i] for i in keep)
            rhs = tuple(rhs[i] for i in keep)
            block_keys = [block_keys[i] for i in keep]
            block_infeasible = block_infeasible and any(
                map(_infeasible_row, lhs, rhs))
        parts.append((lhs, rhs))
        keys.extend(block_keys)
        infeasible = infeasible or block_infeasible
    if not parts:
        return _NO_ROWS
    if len(parts) == 1:
        lhs, rhs = parts[0]
    else:
        lhs = tuple(chain.from_iterable(lhs for lhs, __ in parts))
        rhs = tuple(chain.from_iterable(rhs for __, rhs in parts))
    return lhs, rhs, tuple(keys), infeasible


def _add_row(own: tuple, block: tuple) -> tuple:
    """``_merge`` of a polytope's own block and a block of at most one
    row.

    The own block's keys are distinct, so only the new row's key needs
    looking up; the result equals ``_merge``'s.
    """
    lhs, rhs, keys, infeasible = own
    if not block[2] or block[2][0] in keys:
        return own
    row_lhs, row_rhs, (key,), row_infeasible = block
    return (lhs + row_lhs, rhs + row_rhs, (*keys, key),
            infeasible or row_infeasible)


class ConvexPolytope:
    """A convex polytope ``{x in R^dim : A @ x <= b}``.

    Instances are immutable; all operations return new polytopes.

    The representation is one row block: the normalized rows (see
    :func:`~repro.geometry.constraints.normalize_rows`) as tuples of
    Python floats, with trivially-satisfied rows dropped and duplicates
    removed in first-occurrence order, where two rows are duplicates
    when their 9-decimal :func:`~repro.geometry.constraints.row_keys`
    agree.  Each row's key and whether any row is trivially infeasible
    are computed once, when the row enters; ``intersect``,
    ``with_constraint`` and ``with_halfspace`` merge their operands'
    rows by those keys without re-keying them, and unchanged rows are
    shared between polytopes.  LP requests take the tuples as they are
    (:meth:`repro.lp.LinearProgramSolver.solve`).  Read-only ``(A, b)``
    arrays are built on first use, for the products a polytope of two
    or more dimensions needs (NumPy's dot products may round otherwise
    than a Python sum; in one dimension a row times a point is one
    product, and floats suffice).  :attr:`constraints` derives
    :class:`LinearConstraint` objects from the rows when asked.

    Args:
        dim: Dimensionality of the ambient (parameter) space.
        constraints: Iterable of :class:`LinearConstraint` of dimension
            ``dim``.  Duplicates and trivial constraints are dropped; a
            trivially infeasible constraint of another dimension is kept
            as a zero row of width ``dim``.
    """

    __slots__ = ("dim", "_lhs", "_rhs", "_keys", "_infeasible",
                 "_array_cache", "_empty_cache", "_cheb_cache",
                 "vertex_hint", "cell_tag")

    def __init__(self, dim: int,
                 constraints: Iterable[LinearConstraint] = (), *,
                 _blocks: Sequence[tuple] | None = None) -> None:
        #: Optional exact vertex list attached by constructors that know
        #: the polytope's V-representation (e.g. simplicial grid cells).
        #: Purely an acceleration hint — never required for correctness.
        self.vertex_hint: np.ndarray | None = None
        #: Optional hashable tag identifying the partition cell this
        #: polytope is a subset of.  Two polytopes with different non-None
        #: tags have disjoint interiors; used to skip subtraction work.
        self.cell_tag = None
        self.dim = int(dim)
        # Set operations hand in row blocks (``_blocks``) instead of
        # constraint objects.
        if _blocks is None:
            constraints = list(constraints)
            _blocks = (_keyed(_fit_width(self.dim,
                                         [c.a for c in constraints]),
                              np.array([c.b for c in constraints],
                                       dtype=float)),)
        if len(_blocks) == 2 and len(_blocks[1][2]) <= 1:
            rows = _add_row(*_blocks)
        else:
            rows = _merge(_blocks)
        self._lhs, self._rhs, self._keys, self._infeasible = rows
        self._array_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._empty_cache: bool | None = None
        self._cheb_cache: tuple[np.ndarray | None, float] | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def universe(dim: int) -> ConvexPolytope:
        """The whole space ``R^dim`` (no constraints)."""
        return ConvexPolytope(dim, ())

    @staticmethod
    def from_arrays(a, b) -> ConvexPolytope:
        """Build a polytope from stacked arrays ``A @ x <= b``.

        Rows are normalized as :meth:`LinearConstraint.make` normalizes
        them.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float).reshape(-1)
        if a.ndim != 2 or a.shape[0] != b.shape[0]:
            raise DimensionMismatchError("A and b shapes are inconsistent")
        return ConvexPolytope(a.shape[1],
                              _blocks=(_keyed(*normalize_rows(a, b)),))

    @staticmethod
    def box(lows: Sequence[float], highs: Sequence[float]) -> ConvexPolytope:
        """Axis-aligned box ``lows <= x <= highs``.

        Raises:
            ValueError: If the bounds have different lengths or a low bound
                exceeds its high bound.
        """
        lows = list(lows)
        highs = list(highs)
        if len(lows) != len(highs):
            raise ValueError("lows and highs must have equal length")
        for i, (lo, hi) in enumerate(zip(lows, highs)):
            if lo > hi:
                raise ValueError(f"box bound {i}: low {lo} > high {hi}")
        dim = len(lows)
        # Rows x_i <= hi_i and -x_i <= -lo_i, axis by axis.
        a = np.zeros((2 * dim, dim))
        a[0::2] = np.eye(dim)
        a[1::2] = -np.eye(dim)
        b = np.empty(2 * dim)
        b[0::2] = highs
        b[1::2] = [-lo for lo in lows]
        return ConvexPolytope.from_arrays(a, b)

    @staticmethod
    def unit_box(dim: int) -> ConvexPolytope:
        """The unit hypercube ``[0, 1]^dim`` — the default parameter space."""
        return ConvexPolytope.box([0.0] * dim, [1.0] * dim)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def num_constraints(self) -> int:
        """Number of stored (de-duplicated) constraints."""
        return len(self._keys)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows as read-only ``(A, b)`` float arrays (built once)."""
        if self._array_cache is None:
            a = np.array(self._lhs, dtype=float).reshape(len(self._lhs),
                                                         self.dim)
            b = np.array(self._rhs, dtype=float)
            a.setflags(write=False)
            b.setflags(write=False)
            self._array_cache = (a, b)
        return self._array_cache

    @property
    def _a(self) -> np.ndarray:
        """The coefficient rows as a read-only ``(m, dim)`` array."""
        return self._arrays()[0]

    @property
    def _b(self) -> np.ndarray:
        """The right-hand sides as a read-only length-``m`` array."""
        return self._arrays()[1]

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        """The stored rows as :class:`LinearConstraint` objects.

        Derived from the rows on each access, for callers that want
        objects; the polytope itself never needs them.
        """
        return tuple(LinearConstraint(a=row, b=value)
                     for row, value in zip(self._a, self._rhs))

    def contains_point(self, x, tol: float = GEOMETRY_EPS) -> bool:
        """Return whether point ``x`` lies in the polytope (within ``tol``)."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"point dim {x.shape[0]} != polytope dim {self.dim}")
        if self.dim == 1:
            return self._contains_1d(float(x[0]), tol)
        if not self._keys:
            return True
        return bool((self._a @ x <= self._b + tol).all())

    def _contains_1d(self, x: float, tol: float = GEOMETRY_EPS) -> bool:
        """:meth:`contains_point` of a 1-D polytope at the float ``x``.

        ``A @ x`` is one product per row in one dimension, so comparing
        ``a * x`` with ``b + tol`` row by row decides as the array
        product does.
        """
        return all(row[0] * x <= value + tol
                   for row, value in zip(self._lhs, self._rhs))

    def has_trivially_infeasible(self) -> bool:
        """``True`` if any stored constraint is syntactically infeasible."""
        return self._infeasible

    def is_empty(self, solver: LinearProgramSolver) -> bool:
        """Decide emptiness via a feasibility LP (result cached)."""
        if self._empty_cache is not None:
            return self._empty_cache
        if self.has_trivially_infeasible():
            self._empty_cache = True
            return True
        if not self._keys:
            self._empty_cache = False
            return False
        result = solver.solve(_zero_objective(self.dim), self._lhs,
                              self._rhs, purpose="emptiness")
        self._empty_cache = result.is_infeasible
        return self._empty_cache

    def chebyshev(self, solver: LinearProgramSolver
                  ) -> tuple[np.ndarray | None, float]:
        """Return ``(center, radius)`` of the largest inscribed ball.

        The radius is the standard measure of "how full-dimensional" the
        polytope is: radius ``<= 0`` (within tolerance) means the polytope
        is empty or contained in a hyperplane.  For an unbounded polytope
        the radius is ``inf`` and the center is ``None``.
        Results are cached per instance.
        """
        if self._cheb_cache is not None:
            return self._cheb_cache
        if self.has_trivially_infeasible():
            self._cheb_cache = (None, -np.inf)
            return self._cheb_cache
        if not self._keys:
            self._cheb_cache = (None, np.inf)
            return self._cheb_cache
        # Variables (x, r): maximize r subject to a_i @ x + r <= b_i
        # (constraint normals are unit vectors, so ||a_i|| = 1), i.e.
        # the rows [A | 1].
        result = solver.solve(_chebyshev_objective(self.dim),
                              tuple([row + (1.0,) for row in self._lhs]),
                              self._rhs, purpose="chebyshev")
        if result.is_infeasible:
            self._cheb_cache = (None, -np.inf)
        elif result.status == "unbounded":
            self._cheb_cache = (None, np.inf)
        else:
            x = result.x[: self.dim]
            r = float(result.x[-1])
            self._cheb_cache = (x, r)
        return self._cheb_cache

    def has_interior(self, solver: LinearProgramSolver) -> bool:
        """Return whether the polytope is full-dimensional (Chebyshev
        radius above ``INTERIOR_EPS``)."""
        __, radius = self.chebyshev(solver)
        return radius > INTERIOR_EPS

    def interior_point(self, solver: LinearProgramSolver) -> np.ndarray:
        """Return a point in the (relative) interior.

        Raises:
            EmptyRegionError: If the polytope is empty or lower-dimensional
                and no Chebyshev center exists.
        """
        center, radius = self.chebyshev(solver)
        if center is None or radius < 0:
            raise EmptyRegionError("polytope has no interior point")
        return center

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------

    def _rows(self) -> tuple:
        """This polytope's row block."""
        return self._lhs, self._rhs, self._keys, self._infeasible

    def intersect(self, other: ConvexPolytope) -> ConvexPolytope:
        """Intersection with another polytope (constraint union)."""
        if other.dim != self.dim:
            raise DimensionMismatchError(
                f"cannot intersect dims {self.dim} and {other.dim}")
        result = ConvexPolytope(self.dim,
                                _blocks=(self._rows(), other._rows()))
        # The intersection is a subset of both operands, so it inherits
        # either cell tag (prefer ours).
        result.cell_tag = (self.cell_tag if self.cell_tag is not None
                           else other.cell_tag)
        return result

    def _extended(self, block: tuple) -> ConvexPolytope:
        """This polytope with the rows of ``block`` added."""
        result = ConvexPolytope(self.dim, _blocks=(self._rows(), block))
        result.cell_tag = self.cell_tag
        return result

    def with_constraint(self, constraint: LinearConstraint) -> ConvexPolytope:
        """Return this polytope with one extra constraint added."""
        return self._extended(_keyed(_fit_width(self.dim, [constraint.a]),
                                     np.array([constraint.b])))

    def with_halfspace(self, a, b: float) -> ConvexPolytope:
        """Return this polytope with the halfspace ``a @ x <= b`` added.

        The row is normalized as :meth:`LinearConstraint.make` would
        normalize it, without creating the constraint object.
        """
        rows, rhs = normalize_rows(np.reshape(a, (1, -1)), [b])
        return self._extended(_keyed(_fit_width(self.dim, rows), rhs))

    @staticmethod
    def with_halfspaces_many(bases: Sequence[ConvexPolytope], a, b,
                             counts: Sequence[int]
                             ) -> list[ConvexPolytope]:
        """Add halfspace rows to many polytopes in one pass.

        Result ``i`` is ``bases[i]`` with the next ``counts[i]`` rows of
        ``A @ x <= b`` added in order.  It equals chaining
        :meth:`with_halfspace` over those rows bit for bit (rows, keys,
        row order, infeasible flag, cell tag), but every row is
        normalized and keyed in one call and each result is built once.

        Args:
            bases: Polytopes of one dimension ``d``.
            a: Coefficients, shape ``(sum(counts), d)``.
            b: Right-hand sides, length ``sum(counts)``.
            counts: Rows per base, in order.
        """
        if not counts:
            return []
        a, b = normalize_rows(a, b)
        trivial, infeasible = _zero_rows(a, b)
        if trivial.any():
            # Trivially satisfied rows add nothing (``_keyed`` drops
            # them one at a time on the chained path).
            owner = np.repeat(np.arange(len(counts)), counts)[~trivial]
            a, b, infeasible = a[~trivial], b[~trivial], infeasible[~trivial]
            counts = np.bincount(owner, minlength=len(counts)).tolist()
        keys = row_keys(a, b)
        flags = infeasible.tolist()
        lhs = tuple(map(tuple, a.tolist()))
        rhs = tuple(b.tolist())
        results = []
        start = 0
        for base, count in zip(bases, counts):
            if a.shape[1] != base.dim:
                raise DimensionMismatchError(
                    f"constraint dim {a.shape[1]} != polytope dim "
                    f"{base.dim}")
            stop = start + count
            results.append(base._extended(
                (lhs[start:stop], rhs[start:stop], keys[start:stop],
                 any(flags[start:stop]))))
            start = stop
        return results

    def _cut_rows(self) -> list[tuple[tuple, tuple]]:
        """``(row, negated row)`` blocks of every stored row, in order.

        The negated row is the closed complement ``-a @ x <= -b``
        normalized afresh, as :meth:`LinearConstraint.negation` does
        (a stored row's norm need not be exactly 1); a negated row that
        is trivially satisfied is an empty block.  In one dimension the
        normalization is :func:`_halfspace_1d`'s, in floats.
        """
        rows = zip(self._lhs, self._rhs, self._keys)
        if self.dim == 1:
            return [(((row,), (value,), (key,), _infeasible_row(row, value)),
                     _halfspace_1d(-row[0], -value))
                    for row, value, key in rows]
        infeasible = _zero_rows(self._a, self._b)[1].tolist()
        neg_a, neg_b = normalize_rows(-self._a, -self._b)
        neg_trivial, neg_infeasible = _zero_rows(neg_a, neg_b)
        negated = [
            _NO_ROWS if trivial else ((tuple(a),), (b,), (key,), flag)
            for a, b, key, trivial, flag in zip(
                neg_a.tolist(), neg_b.tolist(), row_keys(neg_a, neg_b),
                neg_trivial.tolist(), neg_infeasible.tolist())]
        return [(((row,), (value,), (key,), flag), neg)
                for (row, value, key), flag, neg in zip(rows, infeasible,
                                                        negated)]

    def contains_polytope(self, other: ConvexPolytope,
                          solver: LinearProgramSolver,
                          tol: float = 1e-7) -> bool:
        """Decide ``other ⊆ self`` by maximizing each constraint over ``other``.

        ``other`` is contained in ``self`` iff for every constraint
        ``a @ x <= b`` of ``self`` the maximum of ``a @ x`` over ``other``
        does not exceed ``b``.  An empty ``other`` is contained in anything.
        """
        if other.dim != self.dim:
            raise DimensionMismatchError("containment across dimensions")
        if other.is_empty(solver):
            return True
        for row, b in zip(self._lhs, self._rhs):
            result = solver.solve(tuple(-coef for coef in row), other._lhs,
                                  other._rhs, purpose="containment")
            if result.status == "unbounded":
                return False
            if result.is_infeasible:  # pragma: no cover - guarded above
                return True
            max_val = -result.objective
            if max_val > b + tol:
                return False
        return True

    def remove_redundant(self, solver: LinearProgramSolver,
                         tol: float = 1e-7) -> ConvexPolytope:
        """Drop constraints implied by the remaining ones.

        This is the first refinement of Section 6.2 of the paper
        ("we simplify the internal representation of convex polytopes ...
        by deleting redundant linear constraints").  Each constraint is
        tested with one LP: maximize its left-hand side subject to all
        *other* kept constraints; if the maximum stays below the right-hand
        side the constraint is redundant.
        """
        lhs, rhs = self._lhs, self._rhs
        kept = list(range(len(self._keys)))
        i = 0
        while i < len(kept):
            candidate = kept[i]
            others = kept[:i] + kept[i + 1:]
            if not others:
                break
            result = solver.solve(tuple(-coef for coef in lhs[candidate]),
                                  tuple(lhs[j] for j in others),
                                  tuple(rhs[j] for j in others),
                                  purpose="redundancy")
            if (result.is_optimal and -result.objective
                    <= rhs[candidate] + tol):
                kept.pop(i)
            else:
                i += 1
        kept_lhs = tuple(lhs[j] for j in kept)
        kept_rhs = tuple(rhs[j] for j in kept)
        return ConvexPolytope(self.dim, _blocks=((
            kept_lhs, kept_rhs, tuple(self._keys[j] for j in kept),
            any(map(_infeasible_row, kept_lhs, kept_rhs))),))

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------

    def bounding_box(self, solver: LinearProgramSolver
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Return per-axis ``(lows, highs)`` of the polytope.

        Raises:
            EmptyRegionError: For an empty polytope.
        """
        if self.is_empty(solver):
            raise EmptyRegionError("bounding box of empty polytope")
        lows = np.empty(self.dim)
        highs = np.empty(self.dim)
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = 1.0
            lo = solver.solve(e, self._lhs, self._rhs, purpose="bbox")
            hi = solver.solve(-e, self._lhs, self._rhs, purpose="bbox")
            lows[i] = -np.inf if lo.status == "unbounded" else lo.objective
            highs[i] = np.inf if hi.status == "unbounded" else -hi.objective
        return lows, highs

    def vertices(self, solver: LinearProgramSolver,
                 tol: float = 1e-7) -> list[np.ndarray]:
        """Enumerate the vertices of a (bounded, low-dimensional) polytope.

        Every vertex of a polytope in ``R^d`` is the intersection of ``d``
        linearly independent active constraints; this brute-force
        enumeration over constraint subsets is exponential in ``d`` and
        intended for the small parameter-space dimensions (1–3) used in the
        paper's experiments and in plotting/analysis code.

        Returns:
            De-duplicated list of vertex coordinate arrays.
        """
        if self.dim == 0 or not self._keys:
            return []
        verts: list[np.ndarray] = []
        for subset in combinations(range(len(self._keys)), self.dim):
            a = self._a[list(subset)]
            b = self._b[list(subset)]
            if abs(np.linalg.det(a)) < 1e-10:
                continue
            x = np.linalg.solve(a, b)
            if self.contains_point(x, tol=tol) and not any(
                    np.allclose(x, v, atol=1e-6) for v in verts):
                verts.append(x)
        return verts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ConvexPolytope(dim={self.dim}, "
                f"constraints={len(self._keys)})")
