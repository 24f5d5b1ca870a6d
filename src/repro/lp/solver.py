"""Linear-program solving with pluggable backends and LP accounting.

All geometric predicates in :mod:`repro.geometry` (emptiness, containment,
redundancy, Chebyshev centers) reduce to linear programs.  They route every
solve through :class:`LinearProgramSolver` so the number of solved LPs can
be reported per optimization run — one of the three quantities plotted in
Figure 12 of the paper.

Three backends are available:

* ``"hybrid"`` — LPs with at most two variables, all free, are solved in
  closed form by :mod:`repro.lp.lowdim`; what it defers
  (``LPStats.lowdim_deferred``) and every other LP go to the simplex
  below, and scipy answers when the simplex raises
  :class:`~repro.errors.SolverError` (default when scipy is importable).
* ``"simplex"`` — the pure-Python two-phase simplex from
  :mod:`repro.lp.simplex`, used without scipy and as testing oracle.
* ``"scipy"`` — :func:`scipy.optimize.linprog` with the HiGHS method,
  the second oracle.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..errors import SolverError
from ..faults import failpoint
from ..util import BoundedLRU
from .counters import LPStats, default_stats
from .lowdim import solve_lowdim
from .simplex import solve_simplex

try:  # pragma: no cover - exercised implicitly on import
    from scipy.optimize import linprog as _scipy_linprog
    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    _scipy_linprog = None
    _HAVE_SCIPY = False


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

    Access is lock-protected: an optimizer session merges worker memo
    deltas from its pool's collector thread while the main thread keeps
    solving (serial runs) or exporting (pool spawns).

    Args:
        maxsize: Maximum number of cached results (LRU eviction).
        track_delta: Record the keys of fresh inserts so
            :meth:`drain_delta` can ship *only what this process learned*
            back to a parent session (pool workers enable this; see
            :mod:`repro.service.session`).
    """

    def __init__(self, maxsize: int = 4096,
                 track_delta: bool = False) -> None:
        self.maxsize = maxsize
        self._data = BoundedLRU(maxsize)
        self._lock = threading.Lock()
        #: Ordered set of keys inserted since the last drain (insertion
        #: order == recency for fresh keys); ``None`` disables tracking.
        self._delta: dict | None = {} if track_delta else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    @staticmethod
    def make_key(c: np.ndarray, a_ub: np.ndarray | None,
                 b_ub: np.ndarray | None, bounds) -> tuple:
        """Canonical hashable key for one LP instance."""
        if a_ub is None:
            rows_key = b""
        else:
            rows = np.hstack([a_ub, b_ub[:, None]])
            order = np.lexsort(rows.T[::-1])
            rows_key = rows[order].tobytes()
        return (c.shape[0], c.tobytes(), rows_key, tuple(map(tuple, bounds)))

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
            if self._delta is not None and key not in self._data:
                self._delta[key] = None
            self._data.put(key, result)

    def export(self, limit: int | None = None) -> list[tuple]:
        """Snapshot of ``(key, result)`` pairs for shipping across processes.

        Most recently used entries are kept when ``limit`` truncates the
        snapshot.  Keys are tuples of primitives and results hold plain
        numpy arrays, so the export pickles cheaply (the optimizer-session
        pool seeds its workers with one at spawn time).
        """
        with self._lock:
            entries = self._data.items()
        if limit is not None and len(entries) > limit:
            entries = entries[-limit:]
        return entries

    def merge(self, entries) -> int:
        """Adopt exported ``(key, result)`` pairs into this cache.

        Merged entries are *not* recorded as deltas — they are somebody
        else's learning (the spawn seed in a worker, a worker delta in
        the parent), and re-shipping them would echo entries back and
        forth.  Returns the number of entries that were new to this
        cache.
        """
        fresh = 0
        with self._lock:
            for key, result in entries:
                if key not in self._data:
                    fresh += 1
                self._data.put(key, result)
        return fresh

    def drain_delta(self, limit: int | None = None) -> list[tuple]:
        """Return (and forget) the entries inserted since the last drain.

        Only caches constructed with ``track_delta=True`` record deltas;
        others return an empty list.  Entries evicted between insert and
        drain are skipped.  ``limit`` keeps the most recent inserts.
        """
        if self._delta is None:
            return []
        with self._lock:
            keys = list(self._delta)
            self._delta.clear()
            if limit is not None and len(keys) > limit:
                keys = keys[-limit:]
            return [(key, self._data.get(key)) for key in keys
                    if key in self._data]


#: Process-wide session LP memo; see :func:`install_shared_lp_cache`.
_SHARED_CACHE: LPResultCache | None = None


def install_shared_lp_cache(cache: LPResultCache | None
                            ) -> LPResultCache | None:
    """Install (or clear, with ``None``) the process-wide session LP memo.

    While a shared cache is installed, every
    :class:`LinearProgramSolver` created with a positive ``cache_size``
    memoizes into it instead of a private per-run cache, so identical LPs
    arising in *different* optimization runs hit.  :class:`repro.api
    .OptimizerSession` installs its session memo around serial runs and
    inside pool workers; solvers created with ``cache_size=0`` (the
    paper-faithful configuration) stay unmemoized either way.

    Returns:
        The previously installed cache, so callers can restore it.
    """
    global _SHARED_CACHE
    previous = _SHARED_CACHE
    _SHARED_CACHE = cache
    return previous


def shared_lp_cache() -> LPResultCache | None:
    """The currently installed process-wide session LP memo, if any."""
    return _SHARED_CACHE


class LinearProgramSolver:
    """Facade over LP backends that records every solve in an :class:`LPStats`.

    Args:
        stats: Counter object to charge solves against.  Defaults to the
            process-wide counter from :func:`repro.lp.counters.default_stats`.
        backend: ``"scipy"``, ``"simplex"``, ``"hybrid"`` or ``"auto"``
            (hybrid when scipy is available, simplex otherwise).
        cache_size: Size of the LP-result memo cache; ``0`` (the default)
            disables memoization so counters reflect every solve.
        cache: Explicit memo cache to use, overriding both ``cache_size``
            and any installed shared cache (see
            :func:`install_shared_lp_cache`).
    """

    def __init__(self, stats: LPStats | None = None,
                 backend: str = "auto", cache_size: int = 0,
                 cache: LPResultCache | None = None) -> None:
        if backend == "auto":
            # The LPs arising in PWL-RRPA are tiny (at most 3 variables,
            # a few dozen rows): closed form and the dependency-free
            # simplex avoid scipy's per-call set-up there.  scipy
            # remains the fallback for anything the simplex cannot handle.
            backend = "hybrid" if _HAVE_SCIPY else "simplex"
        if backend not in ("scipy", "simplex", "hybrid"):
            raise ValueError(f"unknown LP backend: {backend!r}")
        if backend in ("scipy", "hybrid") and not _HAVE_SCIPY:
            raise SolverError("scipy backend requested but scipy is missing")
        self.backend = backend
        self.stats = stats if stats is not None else default_stats()
        if cache is not None:
            self.cache = cache
        elif cache_size > 0:
            # Memoization requested: prefer the session-scoped shared memo
            # when one is installed so hits survive across runs.
            self.cache = (_SHARED_CACHE if _SHARED_CACHE is not None
                          else LPResultCache(cache_size))
        else:
            self.cache = None

    def solve(self, c, a_ub=None, b_ub=None, bounds=None, *,
              purpose: str = "generic") -> LPResult:
        """Solve ``min c@x  s.t.  a_ub@x <= b_ub`` with optional variable bounds.

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
        c, a_ub, b_ub, bounds = self._prepare(c, a_ub, b_ub, bounds)

        key = None
        if self.cache is not None:
            key = LPResultCache.make_key(c, a_ub, b_ub, bounds)
            cached = self.cache.get(key)
            if cached is not None:
                self.stats.record_cache_hit()
                return cached

        result = self._solve_prepared(c, a_ub, b_ub, bounds,
                                      purpose=purpose)
        if key is not None:
            self.cache.put(key, result)
        return result

    def solve_many(self, problems: Sequence[tuple], *,
                   purpose: str | Sequence[str] = "generic"
                   ) -> list[LPResult]:
        """Solve a batch of independent LPs.

        The batched entry point of the geometry kernels.  Semantically
        (results *and* accounting) it equals calling :meth:`solve` per
        problem: every backend solve is recorded, every memoized answer
        is a cache hit, and answers are bit-identical to the per-problem
        path.  The batch form buys memo-backed deduplication: every
        problem is prepared and looked up first, then each distinct miss
        is solved once, in input order, and results solved earlier in
        the same batch answer later duplicates.

        Args:
            problems: Sequence of ``(c, a_ub, b_ub, bounds)`` tuples, each
                accepted exactly as by :meth:`solve`.
            purpose: Tag recorded in the LP statistics — one string for
                the whole batch, or one per problem.

        Returns:
            One :class:`LPResult` per problem, in input order.
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
        results: list[LPResult | None] = [None] * count
        prepared: list[tuple] = [None] * count
        keys: list[tuple | None] = [None] * count
        misses: list[int] = []
        pending: dict[tuple, int] = {}
        duplicates: list[int] = []
        for index, problem in enumerate(problems):
            prepared[index] = self._prepare(*problem)
            if self.cache is not None:
                key = LPResultCache.make_key(*prepared[index])
                keys[index] = key
                cached = self.cache.get(key)
                if cached is not None:
                    self.stats.record_cache_hit()
                    results[index] = cached
                    continue
                if key in pending:
                    # The sequential path would have solved the earlier
                    # twin before reaching this lookup, making this a
                    # memo hit — preserve that accounting exactly.
                    duplicates.append(index)
                    continue
                pending[key] = index
            misses.append(index)
        for index in misses:
            result = self._solve_prepared(*prepared[index],
                                          purpose=purposes[index])
            if keys[index] is not None:
                self.cache.put(keys[index], result)
            results[index] = result
        for index in duplicates:
            cached = self.cache.get(keys[index])
            if cached is None:  # evicted by a later miss of this batch
                cached = self._solve_prepared(*prepared[index],
                                              purpose=purposes[index])
                self.cache.put(keys[index], cached)
            else:
                self.stats.record_cache_hit()
            results[index] = cached
        return results

    def _prepare(self, c, a_ub, b_ub, bounds) -> tuple:
        """Normalize one LP's inputs to canonical arrays (shared by
        :meth:`solve` and :meth:`solve_many`)."""
        c = np.asarray(c, dtype=float)
        n = c.shape[0]
        if bounds is None:
            bounds = [(None, None)] * n
        if a_ub is not None and len(a_ub) > 0:
            a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n)
            b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
            if a_ub.shape[0] != b_ub.shape[0]:
                raise SolverError("A_ub and b_ub row counts differ")
        else:
            a_ub, b_ub = None, None
        return c, a_ub, b_ub, bounds

    def _solve_prepared(self, c, a_ub, b_ub, bounds, *,
                        purpose: str) -> LPResult:
        """Run the backend on prepared inputs and record the solve."""
        started = time.perf_counter()
        if self.backend == "scipy":
            result = self._solve_scipy(c, a_ub, b_ub, bounds)
        elif self.backend == "simplex":
            result = self._solve_simplex(c, a_ub, b_ub, bounds)
        else:  # hybrid: closed form, then simplex, then scipy
            result = None
            if c.shape[0] <= 2 and all(lo is None and hi is None
                                       for lo, hi in bounds):
                answer = solve_lowdim(c, a_ub, b_ub)
                if answer is None:
                    self.stats.lowdim_deferred += 1
                else:
                    result = LPResult(*answer)
            if result is None:
                try:
                    result = self._solve_simplex(c, a_ub, b_ub, bounds)
                except SolverError:
                    result = self._solve_scipy(c, a_ub, b_ub, bounds)
        self.stats.record(purpose=purpose,
                          feasible=not result.is_infeasible,
                          bounded=result.status != "unbounded",
                          objective=bool(np.any(c != 0.0)),
                          seconds=time.perf_counter() - started)
        return result

    def feasible(self, a_ub, b_ub, bounds=None, *,
                 purpose: str = "feasibility") -> bool:
        """Return whether ``{x : a_ub@x <= b_ub}`` (within bounds) is non-empty."""
        n = np.asarray(a_ub, dtype=float).reshape(
            -1, len(a_ub[0]) if len(a_ub) else 0).shape[1] if len(a_ub) else 0
        if n == 0:
            return True
        result = self.solve(np.zeros(n), a_ub, b_ub, bounds, purpose=purpose)
        return result.is_optimal

    def _solve_scipy(self, c, a_ub, b_ub, bounds) -> LPResult:
        res = _scipy_linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds,
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


def make_solver(stats: LPStats | None = None,
                backend: str = "auto",
                cache_size: int = 0) -> LinearProgramSolver:
    """Convenience constructor mirroring :class:`LinearProgramSolver`."""
    return LinearProgramSolver(stats=stats, backend=backend,
                               cache_size=cache_size)
