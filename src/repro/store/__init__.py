"""Persistent, queryable plan-set store (SQLite, stdlib only).

The parametric plan sets this library produces are precomputed
artifacts: a Pareto plan set tagged with its parameter region and alpha
guarantee answers future queries, not just the one that produced it.
This package persists them in a relational layout where warm-start
lookups are set-based queries — exact-signature hits and
nearest-neighbor search over statistics feature vectors for
cross-query seeding.  See ``docs/plan-store.md``.
"""

from .codec import StoreRecord
from .counters import StoreCounters
from .schema import SCHEMA_VERSION, StoreSchemaError
from .store import PlanSetStore

__all__ = [
    "PlanSetStore",
    "SCHEMA_VERSION",
    "StoreCounters",
    "StoreRecord",
    "StoreSchemaError",
]
