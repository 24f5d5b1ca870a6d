"""Linear-programming substrate: solvers and LP accounting.

Public API:

* :class:`LinearProgramSolver` — LP facade with pluggable backends
  (the default ``hybrid``: closed form for at most two free variables,
  then the built-in simplex, then scipy HiGHS, imported on first use;
  or either of the last two alone); its
  :meth:`~LinearProgramSolver.solve_many` solves a sequence of
  independent LPs as a loop of :meth:`~LinearProgramSolver.solve` does.
* :class:`LPResult` — solve outcome.
* :class:`LPResultCache` — bounded LRU memo over canonicalized LP inputs.
* :func:`install_shared_lp_cache` / :func:`shared_lp_cache` — per-thread
  session memo injection (used by :class:`repro.api.OptimizerSession` so
  its in-process runs share LP results; sessions on different threads
  never see each other's memo, and pool tasks run on their own run's
  memo).
* :class:`LPStats` — counters used to reproduce the
  "#solved linear programs" measurements of Figure 12.
* :func:`solve_simplex` — the dense NumPy simplex (no SciPy) used as
  fallback and as a testing oracle.
* :mod:`repro.lp.lowdim` — the exact closed-form solve of LPs with one
  or two free variables that the ``hybrid`` backend tries first.
"""

from .counters import LPStats
from .simplex import SimplexResult, solve_simplex
from .solver import (LinearProgramSolver, LPResult, LPResultCache,
                     install_shared_lp_cache, shared_lp_cache)

__all__ = [
    "LPResult",
    "LPResultCache",
    "LPStats",
    "LinearProgramSolver",
    "SimplexResult",
    "install_shared_lp_cache",
    "shared_lp_cache",
    "solve_simplex",
]
