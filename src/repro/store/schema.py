"""SQLite schema and migrations for the plan-set store.

The store keeps one row per query signature in ``plan_sets`` (the full
``encode_plan_set`` document plus its alpha/guarantee tags and family
metadata), the statistics feature vector in ``features`` (one row per
dimension, so nearest-neighbor search is a ``SUM`` of squared
differences), and the metadata :meth:`PlanSetStore.register` records
per signature in ``signatures``.  ``PRAGMA user_version`` carries the
schema version; :func:`ensure_schema` creates fresh databases at the
current version and upgrades old ones in-place through
:data:`MIGRATIONS`.
"""

from __future__ import annotations

import sqlite3

from ..errors import ReproError

#: Current schema version (``PRAGMA user_version`` of a fresh store).
SCHEMA_VERSION = 3


class StoreSchemaError(ReproError):
    """Raised for store files from the future or failed migrations."""


_PLAN_SETS = """
    CREATE TABLE IF NOT EXISTS plan_sets (
        id INTEGER PRIMARY KEY,
        signature TEXT NOT NULL UNIQUE,
        family TEXT NOT NULL,
        scenario TEXT NOT NULL,
        stats_digest TEXT NOT NULL DEFAULT '',
        num_tables INTEGER NOT NULL,
        num_params INTEGER NOT NULL,
        alpha REAL NOT NULL,
        guarantee REAL NOT NULL,
        num_entries INTEGER NOT NULL,
        document TEXT NOT NULL
    )
    """

_FAMILY_INDEX = """
    CREATE INDEX IF NOT EXISTS ix_plan_sets_family
        ON plan_sets (family, alpha)
    """

_FEATURES = """
    CREATE TABLE IF NOT EXISTS features (
        plan_set_id INTEGER NOT NULL
            REFERENCES plan_sets(id) ON DELETE CASCADE,
        dim INTEGER NOT NULL,
        value REAL NOT NULL,
        PRIMARY KEY (plan_set_id, dim)
    )
    """

_SIGNATURES = """
    CREATE TABLE IF NOT EXISTS signatures (
        signature TEXT PRIMARY KEY,
        family TEXT NOT NULL,
        scenario TEXT NOT NULL,
        stats_digest TEXT NOT NULL DEFAULT '',
        num_tables INTEGER NOT NULL,
        num_params INTEGER NOT NULL,
        features TEXT NOT NULL DEFAULT '[]'
    )
    """

#: Current DDL.  Executed statement-by-statement on fresh databases.
SCHEMA = (_PLAN_SETS, _FAMILY_INDEX, _FEATURES, _SIGNATURES)


def _migrate_v1_to_v2(conn: sqlite3.Connection) -> None:
    """v1 -> v2: statistics split and similarity search.

    Version 1 stored only exact-hit state (``plan_sets`` without the
    ``stats_digest`` column, plus ``param_boxes``).  Version 2 adds the
    statistics digest, the ``features`` table for nearest-neighbor
    lookups and the ``signatures`` metadata side table.  Old rows keep
    working for exact hits; they simply have no feature vector, so they
    are invisible to nearest-neighbor search until rewritten.
    """
    conn.execute(
        "ALTER TABLE plan_sets ADD COLUMN stats_digest TEXT "
        "NOT NULL DEFAULT ''")
    conn.execute(_FEATURES)
    conn.execute(_SIGNATURES)


def _migrate_v2_to_v3(conn: sqlite3.Connection) -> None:
    """v2 -> v3: drop the ``param_boxes`` box-subsumption index.

    Every plan set the built-in scenarios produce covers the whole
    parameter space, so every stored box was the unit box and the index
    answered nothing; no lookup reads it any more.
    """
    conn.execute("DROP TABLE IF EXISTS param_boxes")


#: ``from_version -> migration(conn)`` steps, applied in sequence.
MIGRATIONS = {1: _migrate_v1_to_v2, 2: _migrate_v2_to_v3}


def ensure_schema(conn: sqlite3.Connection) -> int:
    """Create or upgrade the schema; return migrations applied.

    Raises:
        StoreSchemaError: If the file's ``user_version`` is newer than
            this code understands, or a migration step is missing.
    """
    version = conn.execute("PRAGMA user_version").fetchone()[0]
    if version > SCHEMA_VERSION:
        raise StoreSchemaError(
            f"store schema version {version} is newer than the supported "
            f"version {SCHEMA_VERSION}; upgrade the library or use a "
            f"different store file")
    applied = 0
    if version == 0:
        for statement in SCHEMA:
            conn.execute(statement)
    else:
        while version < SCHEMA_VERSION:
            step = MIGRATIONS.get(version)
            if step is None:
                raise StoreSchemaError(
                    f"no migration from store schema version {version}")
            step(conn)
            version += 1
            applied += 1
    conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
    conn.commit()
    return applied
