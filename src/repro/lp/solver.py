"""Linear-program solving with pluggable backends and LP accounting.

All geometric predicates in :mod:`repro.geometry` (emptiness, containment,
redundancy, Chebyshev centers) reduce to linear programs.  They route every
solve through :class:`LinearProgramSolver` so the number of solved LPs can
be reported per optimization run — one of the three quantities plotted in
Figure 12 of the paper.

Three backends are available:

* ``"hybrid"`` (the default) — LPs with at most two variables, all
  free, are solved in closed form by :mod:`repro.lp.lowdim`; what it
  defers (``LPStats.lowdim_deferred``) and every other LP go to the
  simplex below, and scipy answers when the simplex raises
  :class:`~repro.errors.SolverError`.
* ``"simplex"`` — the dense two-phase simplex from
  :mod:`repro.lp.simplex`, a testing oracle.
* ``"scipy"`` — :func:`scipy.optimize.linprog` with the HiGHS method,
  the second oracle.

SciPy is imported by the first solve that reaches HiGHS, so a process
whose LPs all stay on the closed form and the simplex never loads it.
"""

from __future__ import annotations

import functools
import struct
import threading
import time
from dataclasses import dataclass
from collections.abc import Sequence
from itertools import chain

import numpy as np

from ..errors import SolverError
from ..faults import failpoint
from ..util import BoundedLRU
from .counters import LPStats
from .lowdim import solve_lowdim_lists
from .simplex import solve_simplex


@dataclass(frozen=True)
class LPResult:
    """Outcome of one linear program.

    Attributes:
        status: ``"optimal"``, ``"infeasible"`` or ``"unbounded"``.
        x: Optimizing point (``None`` unless optimal).
        objective: Objective value at ``x`` (``None`` unless optimal).
    """

    status: str
    x: np.ndarray | None
    objective: float | None

    @property
    def is_optimal(self) -> bool:
        """``True`` when the LP was solved to optimality."""
        return self.status == "optimal"

    @property
    def is_infeasible(self) -> bool:
        """``True`` when the LP was infeasible."""
        return self.status == "infeasible"


class LPResultCache:
    """Bounded LRU memo of :class:`LPResult` keyed by canonicalized inputs.

    The pruning loops of RRPA solve the *same* tiny LPs over and over:
    identical dominance polytopes arise whenever the same pair of cost
    functions is compared while pruning different table sets.  Keys
    canonicalize the constraint set by sorting rows of ``[A_ub | b_ub]``,
    so two constraint orderings describing the same feasible set share one
    entry.  This is sound for every predicate built on top of the solver
    (feasibility, objective optima and minimizers do not depend on
    constraint order).

    Access is lock-protected: one memo object may be reached from more
    than one thread (an optimizer session's memo, say, by runs on
    whichever thread installed it), and every lookup and insert
    reorders the LRU.

    Args:
        maxsize: Maximum number of cached results (LRU eviction).
    """

    def __init__(self, maxsize: int = 4096) -> None:
        self.maxsize = maxsize
        self._data = BoundedLRU(maxsize)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    @staticmethod
    def make_key(costs, rows, rhs, bounds) -> tuple:
        """Canonical hashable key for one LP instance.

        The rows ``[a_i..., b_i]`` are sorted lexicographically (a
        stable sort, so rows that compare equal keep their input order)
        and packed as native float64 bytes.  For finite rows these are
        the bytes of ``np.hstack([A, b[:, None]])`` sorted by
        ``np.lexsort`` and dumped with ``tobytes()``, built without a
        NumPy call per key; the objective's bytes are those of
        ``c.tobytes()``.  With a NaN the sort order is arbitrary but
        deterministic, and the key still holds every row's exact bytes,
        so two different row sets never share a key.

        Args:
            costs: The objective ``c`` as a sequence of floats.
            rows: The rows of ``A_ub`` as sequences of floats (empty
                without rows).
            rhs: ``b_ub`` as a sequence of floats.
            bounds: Per-variable ``(lo, hi)`` pairs.
        """
        n = len(costs)
        lines = sorted([[*row, value] for row, value in zip(rows, rhs)])
        rows_key = struct.pack(f"{len(lines) * (n + 1)}d",
                               *chain.from_iterable(lines))
        if bounds is not _free_bounds(n):
            bounds = tuple(map(tuple, bounds))
        return (n, struct.pack(f"{n}d", *costs), rows_key, bounds)

    def get(self, key: tuple) -> LPResult | None:
        """Look up a cached result, refreshing its LRU position.

        Hit accounting lives in :class:`LPStats` (``cache_hits``), the
        single source the optimizer statistics report.
        """
        with self._lock:
            return self._data.get(key)

    def put(self, key: tuple, result: LPResult) -> None:
        """Store a result, evicting the least recently used on overflow."""
        with self._lock:
            self._data.put(key, result)


#: Per-thread session LP memo; see :func:`install_shared_lp_cache`.
_INSTALLED = threading.local()


def install_shared_lp_cache(cache: LPResultCache | None
                            ) -> LPResultCache | None:
    """Install (or clear, with ``None``) the calling thread's session
    LP memo.

    While a shared cache is installed, every
    :class:`LinearProgramSolver` the thread creates with a positive
    ``cache_size`` memoizes into it instead of a private per-run cache,
    so identical LPs arising in *different* optimization runs hit.
    :class:`repro.api.OptimizerSession` installs its session memo
    around its in-process runs (serial tasks and every stream); its
    pool workers install none, so a pool task memoizes into its own
    run's cache.  Solvers created with ``cache_size=0`` (the
    paper-faithful configuration) stay unmemoized either way.

    The installation is per thread, so sessions optimizing on different
    threads (the gateway's serial shards) never read, feed or leave
    behind each other's memo, and a session-free optimization reports
    its own LP counts.

    Returns:
        The cache previously installed for this thread, so callers can
        restore it.
    """
    previous = getattr(_INSTALLED, "cache", None)
    _INSTALLED.cache = cache
    return previous


def shared_lp_cache() -> LPResultCache | None:
    """The session LP memo installed for the calling thread, if any."""
    return getattr(_INSTALLED, "cache", None)


class LinearProgramSolver:
    """Facade over LP backends that records every solve in an :class:`LPStats`.

    Args:
        stats: Counter object to charge solves against.  Defaults to a
            fresh :class:`LPStats` of this solver's own.
        backend: ``"hybrid"`` (closed form, then simplex, then scipy),
            or one of the oracles ``"simplex"`` and ``"scipy"``.
        cache_size: Size of the LP-result memo cache; ``0`` (the default)
            disables memoization so counters reflect every solve.
        cache: Explicit memo cache to use, overriding both ``cache_size``
            and any installed shared cache (see
            :func:`install_shared_lp_cache`).
    """

    def __init__(self, stats: LPStats | None = None,
                 backend: str = "hybrid", cache_size: int = 0,
                 cache: LPResultCache | None = None) -> None:
        if backend not in ("scipy", "simplex", "hybrid"):
            raise ValueError(f"unknown LP backend: {backend!r}")
        self.backend = backend
        self.stats = stats if stats is not None else LPStats()
        if cache is not None:
            self.cache = cache
        elif cache_size > 0:
            # Memoization requested: prefer the session-scoped shared memo
            # when one is installed so hits survive across runs.
            shared = shared_lp_cache()
            self.cache = (shared if shared is not None
                          else LPResultCache(cache_size))
        else:
            self.cache = None

    def solve(self, c, a_ub=None, b_ub=None, bounds=None, *,
              purpose: str = "generic") -> LPResult:
        """Solve ``min c@x  s.t.  a_ub@x <= b_ub`` with optional variable bounds.

        The geometry layer hands in its rows as they are stored: ``c``
        as a tuple of floats, ``a_ub`` as a tuple of row tuples and
        ``b_ub`` as a tuple of floats.  Those are keyed and solved
        without a NumPy round trip; arrays are built only when the
        simplex or scipy answers.  Any other input is converted with
        ``np.asarray`` first.  Both forms of one LP give the same memo
        key, result and accounting.

        Args:
            c: Objective coefficient vector.
            a_ub: Inequality constraint matrix (may be ``None`` / empty).
            b_ub: Inequality right-hand side vector.
            bounds: Per-variable ``(lo, hi)`` bounds; defaults to free
                variables, matching the geometry layer's convention (the
                parameter-space box is expressed as explicit constraints).
            purpose: Tag recorded in the LP statistics.

        Returns:
            An :class:`LPResult`.

        Raises:
            SolverError: If the backend fails in an unexpected way.
        """
        failpoint("lp.solver.fail")  # inert without a REPRO_FAULTS schedule
        prepared = self._prepare(c, a_ub, b_ub, bounds)

        key = None
        if self.cache is not None:
            key = self._key(prepared)
            cached = self.cache.get(key)
            if cached is not None:
                self.stats.record_cache_hit()
                return cached

        result = self._solve_prepared(*prepared, purpose=purpose)
        if key is not None:
            self.cache.put(key, result)
        return result

    def solve_many(self, problems: Sequence[tuple], *,
                   purpose: str | Sequence[str] = "generic"
                   ) -> list[LPResult]:
        """Solve independent LPs in order: a loop of :meth:`solve`.

        Every problem is one request, so the results and the accounting
        (solves, memo hits, eviction) are the loop's.

        Args:
            problems: Sequence of ``(c, a_ub, b_ub, bounds)`` tuples, each
                accepted exactly as by :meth:`solve`.
            purpose: Tag recorded in the LP statistics — one string for
                all problems, or one per problem.

        Returns:
            One :class:`LPResult` per problem, in input order.

        Benchmark hook: perfbench/spans.py wraps it; ROADMAP item 1
        deletes it once the tracer stops naming it.
        """
        count = len(problems)
        if isinstance(purpose, str):
            purposes = [purpose] * count
        else:
            purposes = [str(tag) for tag in purpose]
            if len(purposes) != count:
                raise SolverError(
                    "one purpose per problem required "
                    f"({len(purposes)} purposes for {count} problems)")
        return [self.solve(*problem, purpose=tag)
                for problem, tag in zip(problems, purposes)]

    def _prepare(self, c, a_ub, b_ub, bounds) -> tuple:
        """Normalize one LP request's inputs.

        Returns ``(costs, rows, rhs, bounds)``: ``c``, the rows of
        ``a_ub`` and ``b_ub`` as Python sequences of floats (empty
        without rows) and the per-variable bounds.  Tuples of floats
        (the geometry layer's rows) are kept as they are; anything else
        goes through ``np.asarray(..., dtype=float)`` and ``tolist``
        once.  The memo key, the closed form and the arrays of the
        simplex and scipy are all built from these.
        """
        costs = c if type(c) is tuple else np.asarray(
            c, dtype=float).reshape(-1).tolist()
        n = len(costs)
        if bounds is None:
            bounds = _free_bounds(n)
        if a_ub is None or len(a_ub) == 0:
            rows, rhs = (), ()
        elif (type(a_ub) is tuple and type(a_ub[0]) is tuple
              and type(b_ub) is tuple):
            # A row block has one width: its first row's.
            rows, rhs = a_ub, b_ub
            if len(rows) != len(rhs):
                raise SolverError("A_ub and b_ub row counts differ")
            if len(rows[0]) != n:
                raise SolverError("A_ub rows and c differ in length")
        else:
            a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n)
            b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
            if a_ub.shape[0] != b_ub.shape[0]:
                raise SolverError("A_ub and b_ub row counts differ")
            rows, rhs = a_ub.tolist(), b_ub.tolist()
        return costs, rows, rhs, bounds

    @staticmethod
    def _key(prepared: tuple) -> tuple:
        """The memo key of a :meth:`_prepare` tuple."""
        return LPResultCache.make_key(*prepared)

    def _solve_prepared(self, costs, rows, rhs, bounds, *,
                        purpose: str) -> LPResult:
        """Run the backend on a :meth:`_prepare` tuple and record the
        solve."""
        started = time.perf_counter()
        if self.backend == "scipy":
            result = self._solve_scipy(*_arrays(costs, rows, rhs), bounds)
        elif self.backend == "simplex":
            result = self._solve_simplex(*_arrays(costs, rows, rhs), bounds)
        else:  # hybrid: closed form, then simplex, then scipy
            result = None
            if len(costs) <= 2 and (bounds is _free_bounds(len(costs))
                                    or all(lo is None and hi is None
                                           for lo, hi in bounds)):
                answer = solve_lowdim_lists(costs, rows, rhs)
                if answer is None:
                    self.stats.lowdim_deferred += 1
                else:
                    result = LPResult(*answer)
            if result is None:
                arrays = _arrays(costs, rows, rhs)
                try:
                    result = self._solve_simplex(*arrays, bounds)
                except SolverError:
                    result = self._solve_scipy(*arrays, bounds)
        # ``any`` of the floats is ``np.any(c != 0.0)``: -0.0 counts as
        # zero, NaN as non-zero.
        self.stats.record(purpose=purpose,
                          feasible=not result.is_infeasible,
                          bounded=result.status != "unbounded",
                          objective=any(costs),
                          seconds=time.perf_counter() - started)
        return result

    def _solve_scipy(self, c, a_ub, b_ub, bounds) -> LPResult:
        # Imported on first use: loading scipy.optimize costs about
        # 0.5 s and 45 MB, and the hybrid backend reaches HiGHS only
        # when the simplex raises.
        from scipy.optimize import linprog

        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                      method="highs")
        if res.status == 0:
            return LPResult("optimal", np.asarray(res.x, dtype=float),
                            float(res.fun))
        if res.status == 2:
            return LPResult("infeasible", None, None)
        if res.status == 3:
            return LPResult("unbounded", None, None)
        raise SolverError(f"scipy linprog failed: {res.message}")

    def _solve_simplex(self, c, a_ub, b_ub, bounds) -> LPResult:
        res = solve_simplex(c, a_ub, b_ub, bounds)
        return LPResult(res.status, res.x, res.objective)


@functools.cache
def _free_bounds(n: int) -> tuple:
    """``n`` free variables: the bounds of every geometry LP."""
    return ((None, None),) * n


def _arrays(costs, rows, rhs) -> tuple:
    """``(c, A_ub, b_ub)`` float arrays of a :meth:`_prepare` tuple, as
    the simplex and scipy take them (``None`` without rows)."""
    c = np.array(costs, dtype=float)
    if not rows:
        return c, None, None
    return (c, np.array(rows, dtype=float).reshape(len(rows), c.shape[0]),
            np.array(rhs, dtype=float))
