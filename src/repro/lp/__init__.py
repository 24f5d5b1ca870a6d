"""Linear-programming substrate: solvers and LP accounting.

Public API:

* :class:`LinearProgramSolver` / :func:`make_solver` — LP facade with
  pluggable backends (the default ``hybrid``: closed form for at most
  two free variables, then the built-in simplex, then scipy HiGHS; or
  either of the last two alone); its
  :meth:`~LinearProgramSolver.solve_many` solves a batch of independent
  LPs with memo-backed in-batch deduplication (the entry point of the
  batched geometry kernels).
* :class:`LPResult` — solve outcome.
* :class:`LPResultCache` — bounded LRU memo over canonicalized LP inputs.
* :func:`install_shared_lp_cache` / :func:`shared_lp_cache` — process-wide
  session memo injection (used by :class:`repro.api.OptimizerSession` so
  LP results are shared across runs and shipped to pool workers).
* :class:`LPStats` / :func:`default_stats` — counters used to reproduce the
  "#solved linear programs" measurements of Figure 12.
* :func:`solve_simplex` — the dependency-free simplex used as fallback and
  as a testing oracle.
* :mod:`repro.lp.lowdim` — the exact closed-form solve of LPs with one
  or two free variables that the ``hybrid`` backend tries first.
"""

from .counters import LPStats, default_stats
from .simplex import SimplexResult, solve_simplex
from .solver import (LinearProgramSolver, LPResult, LPResultCache,
                     install_shared_lp_cache, make_solver, shared_lp_cache)

__all__ = [
    "LPResult",
    "LPResultCache",
    "LPStats",
    "LinearProgramSolver",
    "SimplexResult",
    "default_stats",
    "install_shared_lp_cache",
    "make_solver",
    "shared_lp_cache",
    "solve_simplex",
]
