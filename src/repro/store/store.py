"""The SQLite-backed plan-set store.

:class:`PlanSetStore` persists serialized Pareto plan sets
(``encode_plan_set`` documents) keyed by query signature, with the
two lookups the warm-start tier serves:

* **exact hits** — ``get(signature)``, optionally alpha-bounded;
* **nearest neighbor** — ``nearest(family, features)``: the stored plan
  set of the same structural family whose statistics feature vector is
  closest, for cross-query warm-start seeding.

The database runs in WAL mode so gateway shards (threads) and parallel
sessions (processes) can share one store file; a single serialized
connection per :class:`PlanSetStore` instance keeps the embedded usage
simple, and SQLite's busy timeout arbitrates cross-process writers.
Unreadable store files degrade to a cold start: the file is renamed
aside with a warning and an empty store is created in its place.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import warnings
from collections.abc import Sequence

from ..faults import failpoint
from .codec import (StoreRecord, decode_document, decode_features,
                    encode_document, encode_features)
from .counters import StoreCounters
from .schema import SCHEMA_VERSION, StoreSchemaError, ensure_schema

#: Alpha slack for "coarser never overwrites tighter" (mirrors
#: :class:`repro.service.cache.WarmStartCache`).
ALPHA_EPS = 1e-12


class PlanSetStore:
    """Persistent, queryable store of serialized Pareto plan sets.

    Args:
        path: Database file path, or ``":memory:"`` for an ephemeral
            in-process store (used by tests and as a cache tier without
            durability).
        timeout: SQLite busy timeout in seconds — how long a write waits
            for a concurrent writer from another process.

    Thread-safe: one internal connection guarded by a lock, so a store
    instance can be shared across gateway shards.
    """

    def __init__(self, path=":memory:", *, timeout: float = 30.0) -> None:
        self.path = str(path)
        self.timeout = float(timeout)
        self.counters = StoreCounters()
        self._lock = threading.RLock()
        self._conn: sqlite3.Connection | None = None
        self._conn = self._open()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def in_memory(self) -> bool:
        """Whether the store has no backing file."""
        return self.path == ":memory:"

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=self.timeout,
                               check_same_thread=False)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA foreign_keys=ON")
        self.counters.migrations += ensure_schema(conn)
        return conn

    def _open(self) -> sqlite3.Connection:
        try:
            return self._connect()
        except StoreSchemaError:
            raise
        except sqlite3.DatabaseError as exc:
            if self.in_memory:
                raise
            quarantine = self.path + ".corrupt"
            warnings.warn(
                f"plan-set store {self.path!r} is unreadable ({exc}); "
                f"moving it to {quarantine!r} and starting cold",
                RuntimeWarning, stacklevel=3)
            os.replace(self.path, quarantine)
            for suffix in ("-wal", "-shm"):
                try:
                    os.remove(self.path + suffix)
                except OSError:
                    pass
            self.counters.corruption_recoveries += 1
            return self._connect()

    def flush(self) -> None:
        """Commit and fold the WAL back into the main database file."""
        with self._lock:
            if self._conn is None:
                return
            self._conn.commit()
            if not self.in_memory:
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        """Flush and close the connection (idempotent)."""
        with self._lock:
            if self._conn is None:
                return
            try:
                self.flush()
            finally:
                self._conn.close()
                self._conn = None

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._conn is None

    def __enter__(self) -> PlanSetStore:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _cursor(self) -> sqlite3.Connection:
        if self._conn is None:
            raise StoreSchemaError("plan-set store is closed")
        return self._conn

    # ------------------------------------------------------------------
    # Signature metadata
    # ------------------------------------------------------------------

    def register(self, signature: str, *, family: str, scenario: str,
                 stats_digest: str = "", num_tables: int = 0,
                 num_params: int = 1,
                 features: Sequence[float] = ()) -> None:
        """Record the family metadata of a signature.

        Sessions call this on every cache miss, before the optimizer
        runs, so a later :meth:`put` through the cache tier (which only
        knows signature + document) can attach family, statistics digest
        and feature vector to the stored row.
        """
        with self._lock:
            conn = self._cursor()
            conn.execute(
                "INSERT INTO signatures (signature, family, scenario, "
                "stats_digest, num_tables, num_params, features) "
                "VALUES (?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(signature) DO UPDATE SET family=excluded.family,"
                " scenario=excluded.scenario,"
                " stats_digest=excluded.stats_digest,"
                " num_tables=excluded.num_tables,"
                " num_params=excluded.num_params,"
                " features=excluded.features",
                (signature, family, scenario, stats_digest,
                 int(num_tables), int(num_params),
                 encode_features(features)))
            conn.commit()

    def metadata(self, signature: str) -> StoreRecord | None:
        """The registered metadata of a signature (document-less)."""
        with self._lock:
            row = self._cursor().execute(
                "SELECT family, scenario, stats_digest, num_tables, "
                "num_params, features FROM signatures WHERE signature = ?",
                (signature,)).fetchone()
        if row is None:
            return None
        return StoreRecord(signature=signature, family=row[0],
                           scenario=row[1], stats_digest=row[2],
                           num_tables=row[3], num_params=row[4],
                           features=decode_features(row[5]), document={})

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def put(self, signature: str, document: dict) -> bool:
        """Store a plan-set document under a signature.

        The row's family metadata and feature vector are joined from a
        prior :meth:`register` for the signature (empty without one).  A
        coarser document (higher alpha) never overwrites a tighter
        stored one; equal-or-tighter documents replace the row (and its
        feature rows).

        Returns:
            Whether the document was written.
        """
        # Failpoints (inert without a REPRO_FAULTS schedule): a failed
        # or locked-out write surfaces as an exception the write-through
        # tier absorbs (counters.write_faults_absorbed).
        failpoint("store.put.fail")
        failpoint("store.put.locked")
        meta = self.metadata(signature)
        family = meta.family if meta else ""
        scenario = meta.scenario if meta else ""
        stats_digest = meta.stats_digest if meta else ""
        num_tables = meta.num_tables if meta else 0
        features = meta.features if meta else ()
        alpha = float(document.get("alpha", 0.0))
        guarantee = float(document.get("guarantee", 1.0))
        num_params = max(1, int(document.get("num_params", 1)))
        num_entries = len(document.get("entries", []))
        with self._lock:
            conn = self._cursor()
            row = conn.execute(
                "SELECT id, alpha FROM plan_sets WHERE signature = ?",
                (signature,)).fetchone()
            if row is not None and alpha > row[1] + ALPHA_EPS:
                self.counters.puts_rejected_coarser += 1
                return False
            if row is not None:
                conn.execute("DELETE FROM features WHERE plan_set_id = ?",
                             (row[0],))
                conn.execute("DELETE FROM plan_sets WHERE id = ?", (row[0],))
            cursor = conn.execute(
                "INSERT INTO plan_sets (signature, family, scenario, "
                "stats_digest, num_tables, num_params, alpha, guarantee, "
                "num_entries, document) VALUES (?,?,?,?,?,?,?,?,?,?)",
                (signature, family, scenario, stats_digest,
                 int(num_tables), num_params, alpha, guarantee,
                 num_entries, encode_document(document)))
            plan_set_id = cursor.lastrowid
            conn.executemany(
                "INSERT INTO features (plan_set_id, dim, value) "
                "VALUES (?,?,?)",
                [(plan_set_id, dim, float(value))
                 for dim, value in enumerate(features)])
            # Crash window: a writer killed here leaves an uncommitted
            # WAL transaction that the next open must roll back cleanly
            # (tests/test_store.py torn-put coverage).
            failpoint("store.put.torn")
            conn.commit()
        self.counters.puts += 1
        return True

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def get(self, signature: str,
            max_alpha: float | None = None) -> dict | None:
        """Exact-signature lookup, optionally bounded by alpha."""
        with self._lock:
            row = self._cursor().execute(
                "SELECT alpha, document FROM plan_sets WHERE signature = ?",
                (signature,)).fetchone()
        if row is None or (max_alpha is not None
                           and row[0] > max_alpha + ALPHA_EPS):
            self.counters.misses += 1
            return None
        self.counters.exact_hits += 1
        return decode_document(row[1])

    def nearest(self, family: str, features: Sequence[float], *,
                limit: int = 1, exclude_signature: str | None = None,
                exclude_stats_digest: str | None = None) -> list[dict]:
        """Same-family plan sets ranked by statistics similarity.

        Euclidean (squared) distance between the stored feature vectors
        and ``features``; only rows with a complete feature vector of
        matching dimensionality participate.

        Returns:
            ``{"signature", "alpha", "guarantee", "distance",
            "document"}`` dicts, nearest first (signature breaks ties
            deterministically).
        """
        features = [float(v) for v in features]
        if not features:
            return []
        values = ", ".join(["(?, ?)"] * len(features))
        params: list = []
        for dim, value in enumerate(features):
            params.extend((dim, value))
        sql = (
            f"WITH qf(dim, value) AS (VALUES {values}) "
            "SELECT p.signature, p.alpha, p.guarantee, p.document,"
            " SUM((f.value - qf.value) * (f.value - qf.value)) AS dist"
            " FROM plan_sets p"
            " JOIN features f ON f.plan_set_id = p.id"
            " JOIN qf ON qf.dim = f.dim"
            " WHERE p.family = ?"
            " AND (? IS NULL OR p.signature <> ?)"
            " AND (? IS NULL OR p.stats_digest <> ?)"
            " GROUP BY p.id HAVING COUNT(*) = ?"
            " ORDER BY dist ASC, p.signature ASC LIMIT ?")
        params.extend((family, exclude_signature, exclude_signature,
                       exclude_stats_digest, exclude_stats_digest,
                       len(features), int(limit)))
        with self._lock:
            rows = self._cursor().execute(sql, params).fetchall()
        self.counters.nn_queries += 1
        if rows:
            self.counters.near_hits += 1
        return [{"signature": r[0], "alpha": r[1], "guarantee": r[2],
                 "document": decode_document(r[3]), "distance": r[4]}
                for r in rows]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return self._cursor().execute(
                "SELECT COUNT(*) FROM plan_sets").fetchone()[0]

    def schema_version(self) -> int:
        """The open database's ``PRAGMA user_version``."""
        with self._lock:
            return self._cursor().execute(
                "PRAGMA user_version").fetchone()[0]

    def snapshot(self) -> dict[str, int]:
        """Counter snapshot plus current size, for metrics documents."""
        doc = self.counters.snapshot()
        doc["entries"] = len(self) if not self.closed else 0
        doc["schema_version"] = (SCHEMA_VERSION if self.closed
                                 else self.schema_version())
        return doc
