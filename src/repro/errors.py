"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so that callers
can catch everything raised by this package with a single ``except`` clause
while still being able to distinguish error categories.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class DimensionMismatchError(ReproError):
    """Raised when vectors/matrices of incompatible dimensions are combined.

    Examples include intersecting polytopes that live in parameter spaces of
    different dimensionality, or evaluating a cost function at a parameter
    vector of the wrong length.
    """


class SolverError(ReproError):
    """Raised when the underlying LP solver fails for an unexpected reason."""


class EmptyRegionError(ReproError):
    """Raised when an operation requires a non-empty region but got an empty one."""


class CatalogError(ReproError):
    """Raised for inconsistent catalog definitions (unknown tables, columns...)."""


class QueryError(ReproError):
    """Raised for malformed queries (disconnected predicates, unknown tables...)."""


class PlanError(ReproError):
    """Raised for malformed query plans (overlapping table sets, bad operators)."""


class OptimizationError(ReproError):
    """Raised when an optimizer cannot produce a plan set for a query."""
