"""The persistent plan-set store: schema, lookups, robustness.

Covers the contract of :class:`repro.store.PlanSetStore` in isolation
(seeding behavior through sessions lives in ``test_store_seeding.py``):

* round trips, alpha bounds, and the coarser-never-overwrites-tighter
  write rule shared with :class:`repro.service.cache.WarmStartCache`;
* same-family nearest-neighbor search (``nearest``), including
  exclusion filters;
* schema versioning — fresh stores at the current version, in-place
  migration of checked-in version-1 and version-2 fixtures, refusal of
  files from the future;
* robustness — corrupted files degrade to a cold start with a warning,
  two store instances on one WAL file interleave writes safely, and a
  file written by one process is read back by the next (the CI
  persistence leg runs this module twice against one database via
  ``REPRO_STORE_PERSIST_DB``);
* dependency hygiene — the store package imports stdlib only and the
  project grows no new runtime dependencies.
"""

from __future__ import annotations

import ast
import json
import multiprocessing
import os
import sqlite3
import threading
from pathlib import Path

import pytest

from repro import config, faults
from repro.core import encode_result
from repro.query import QueryGenerator
from repro.service.registry import get_scenario
from repro.service.signature import (family_digest, query_signature,
                                     signature_features, statistics_digest)
from repro.store import PlanSetStore, SCHEMA_VERSION, StoreSchemaError

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"
V1_FIXTURE = FIXTURES / "store_v1.sql"
V2_FIXTURE = FIXTURES / "store_v2.sql"


@pytest.fixture(scope="module")
def plan_doc():
    """A real exact plan-set document (small query, fast to produce)."""
    query = QueryGenerator(seed=3).generate(num_tables=3, shape="chain",
                                            num_params=1)
    result = get_scenario("cloud").optimize(query, resolution=2)
    doc = encode_result(result)
    doc.setdefault("alpha", 0.0)
    doc.setdefault("guarantee", 1.0)
    return doc


def coarse_doc(doc, alpha):
    """The same document tagged at a coarser alpha."""
    out = dict(doc)
    out["alpha"] = alpha
    out["guarantee"] = (1.0 + alpha) ** 3
    return out


def table_names(path) -> set[str]:
    conn = sqlite3.connect(path)
    try:
        return {row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
    finally:
        conn.close()


class TestRoundTrip:
    def test_fresh_store_is_current_version(self):
        with PlanSetStore() as store:
            assert store.schema_version() == SCHEMA_VERSION == 3
            assert len(store) == 0

    def test_fresh_store_has_no_box_index(self, tmp_path, plan_doc):
        path = tmp_path / "store.db"
        with PlanSetStore(path) as store:
            assert store.put("sig-a", plan_doc)
        assert table_names(path) == {"plan_sets", "features", "signatures"}

    def test_put_get_round_trip(self, plan_doc):
        with PlanSetStore() as store:
            assert store.put("sig-a", plan_doc)
            assert store.get("sig-a") == plan_doc
            assert store.get("sig-missing") is None
            assert len(store) == 1
            assert store.counters.exact_hits == 1
            assert store.counters.misses == 1

    def test_get_respects_max_alpha(self, plan_doc):
        with PlanSetStore() as store:
            store.put("sig-a", coarse_doc(plan_doc, 0.2))
            assert store.get("sig-a", max_alpha=0.05) is None
            assert store.get("sig-a", max_alpha=0.2) is not None
            assert store.get("sig-a", max_alpha=0.5) is not None

    def test_coarser_never_overwrites_tighter(self, plan_doc):
        with PlanSetStore() as store:
            assert store.put("sig-a", plan_doc)  # exact
            assert not store.put("sig-a", coarse_doc(plan_doc, 0.2))
            assert store.get("sig-a")["alpha"] == 0.0
            assert store.counters.puts_rejected_coarser == 1

    def test_tighter_replaces_coarser(self, plan_doc):
        with PlanSetStore() as store:
            assert store.put("sig-a", coarse_doc(plan_doc, 0.5))
            assert store.put("sig-a", coarse_doc(plan_doc, 0.2))
            assert store.put("sig-a", plan_doc)
            assert store.get("sig-a")["alpha"] == 0.0
            assert len(store) == 1

    def test_closed_store_raises(self, plan_doc):
        store = PlanSetStore()
        store.close()
        assert store.closed
        store.close()  # idempotent
        with pytest.raises(StoreSchemaError):
            store.get("sig-a")

    def test_snapshot_shape(self, plan_doc):
        with PlanSetStore() as store:
            store.put("sig-a", plan_doc)
            snap = store.snapshot()
        assert snap["entries"] == 1
        assert snap["puts"] == 1
        assert snap["schema_version"] == SCHEMA_VERSION
        for key in ("exact_hits", "misses", "near_hits", "nn_queries",
                    "puts_rejected_coarser", "migrations",
                    "corruption_recoveries"):
            assert key in snap
        assert "covering_queries" not in snap


class TestNearestNeighbor:
    def seed(self, store, signature, features, doc):
        store.register(signature, family="fam", scenario="cloud",
                       stats_digest=f"stats-{signature}",
                       num_tables=3, features=features)
        assert store.put(signature, doc)

    def test_nearest_ranks_by_feature_distance(self, plan_doc):
        with PlanSetStore() as store:
            self.seed(store, "sig-close", (1.0, 2.0), plan_doc)
            self.seed(store, "sig-far", (5.0, 9.0), plan_doc)
            rows = store.nearest("fam", (1.1, 2.1), limit=2)
            assert [r["signature"] for r in rows] == ["sig-close",
                                                      "sig-far"]
            assert rows[0]["distance"] < rows[1]["distance"]
            assert rows[0]["document"] == plan_doc

    def test_nearest_excludes_self_and_same_stats(self, plan_doc):
        with PlanSetStore() as store:
            self.seed(store, "sig-a", (1.0, 2.0), plan_doc)
            self.seed(store, "sig-b", (1.5, 2.5), plan_doc)
            rows = store.nearest("fam", (1.0, 2.0),
                                 exclude_signature="sig-a")
            assert [r["signature"] for r in rows] == ["sig-b"]
            rows = store.nearest("fam", (1.0, 2.0),
                                 exclude_stats_digest="stats-sig-a")
            assert [r["signature"] for r in rows] == ["sig-b"]

    def test_nearest_requires_matching_family_and_dims(self, plan_doc):
        with PlanSetStore() as store:
            self.seed(store, "sig-a", (1.0, 2.0), plan_doc)
            assert store.nearest("other-family", (1.0, 2.0)) == []
            # Dimensionality mismatch: stored vectors don't qualify.
            assert store.nearest("fam", (1.0, 2.0, 3.0)) == []
            assert store.nearest("fam", ()) == []


class TestSchemaVersioning:
    def build(self, path, fixture):
        conn = sqlite3.connect(path)
        conn.executescript(fixture.read_text(encoding="utf-8"))
        conn.commit()
        conn.close()

    def test_v1_fixture_migrates_in_place(self, tmp_path, plan_doc):
        path = tmp_path / "store.db"
        self.build(path, V1_FIXTURE)
        with PlanSetStore(path) as store:
            assert store.schema_version() == SCHEMA_VERSION
            assert store.counters.migrations == 2  # v1 -> v2 -> v3
            # The legacy row survives and still answers exact hits.
            legacy = store.get("sig-legacy")
            assert legacy is not None and legacy["entries"] == []
            # The migrated database accepts current-version writes with
            # feature vectors (tables added by the migration).
            store.register("sig-new", family="fam", scenario="cloud",
                           features=(1.0, 2.0))
            assert store.put("sig-new", plan_doc)
            assert store.nearest("fam", (1.0, 2.0))
        # Reopening the migrated file applies no further migrations.
        with PlanSetStore(path) as store:
            assert store.counters.migrations == 0
        assert "param_boxes" not in table_names(path)

    def test_v2_fixture_migrates_in_place(self, tmp_path):
        path = tmp_path / "store.db"
        self.build(path, V2_FIXTURE)
        assert "param_boxes" in table_names(path)
        with PlanSetStore(path) as store:
            assert store.schema_version() == SCHEMA_VERSION
            assert store.counters.migrations == 1  # v2 -> v3
            # The stored row keeps answering both lookups.
            doc = store.get("sig-v2")
            assert doc is not None and doc["entries"] == []
            rows = store.nearest("fam-v2", (1.0, 2.0))
            assert [row["signature"] for row in rows] == ["sig-v2"]
            assert rows[0]["distance"] == 0.0
        assert table_names(path) == {"plan_sets", "features", "signatures"}
        with PlanSetStore(path) as store:
            assert store.counters.migrations == 0
            assert store.get("sig-v2") == doc

    def test_future_version_refused_not_destroyed(self, tmp_path):
        path = tmp_path / "store.db"
        with PlanSetStore(path) as store:
            pass
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(StoreSchemaError, match="newer"):
            PlanSetStore(path)
        # Refusal must not quarantine or rewrite the file.
        assert path.exists() and not (tmp_path / "store.db.corrupt"
                                      ).exists()


def _torn_put_victim(path, doc) -> None:
    """Child-process body: die mid-put, after the writes, before the
    commit (the ``store.put.torn`` failpoint's crash window)."""
    faults.install("store.put.torn:1")
    with PlanSetStore(path) as store:
        store.put("torn-victim", doc)
    os._exit(0)  # pragma: no cover - only reached if the fault missed


class TestRobustness:
    def test_torn_put_crash_recovers_with_no_lost_entries(self, tmp_path,
                                                          plan_doc):
        # Crash consistency: a writer killed hard mid-transaction must
        # cost at most its own in-flight put.  The next open rolls the
        # torn WAL transaction back silently — every prior entry
        # intact, no quarantine false-positive, no recovery counter.
        path = tmp_path / "store.db"
        with PlanSetStore(path) as store:
            for i in range(5):
                store.put(f"prior-{i}", plan_doc)

        process = multiprocessing.Process(
            target=_torn_put_victim, args=(path, plan_doc))
        process.start()
        process.join(60.0)
        assert process.exitcode == faults.FAULT_EXIT_CODE

        with PlanSetStore(path) as reopened:
            assert reopened.counters.corruption_recoveries == 0
            assert len(reopened) == 5
            for i in range(5):
                assert reopened.get(f"prior-{i}") == plan_doc
            assert reopened.get("torn-victim") is None
        assert not (tmp_path / "store.db.corrupt").exists()

    def test_corrupted_file_degrades_to_cold_start(self, tmp_path,
                                                   plan_doc):
        path = tmp_path / "store.db"
        path.write_bytes(b"this is not a sqlite database" * 64)
        with pytest.warns(RuntimeWarning, match="unreadable"):
            store = PlanSetStore(path)
        try:
            assert store.counters.corruption_recoveries == 1
            assert len(store) == 0
            # The broken file is preserved for post-mortem ...
            assert (tmp_path / "store.db.corrupt").exists()
            # ... and the fresh store is fully usable.
            assert store.put("sig-a", plan_doc)
            assert store.get("sig-a") == plan_doc
        finally:
            store.close()

    def test_concurrent_writers_share_one_wal_file(self, tmp_path,
                                                   plan_doc):
        path = tmp_path / "store.db"
        first, second = PlanSetStore(path), PlanSetStore(path)
        errors = []

        def hammer(store, prefix):
            try:
                for i in range(25):
                    store.put(f"{prefix}-{i}", plan_doc)
                    store.get(f"{prefix}-{i}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(first, "a")),
                   threading.Thread(target=hammer, args=(second, "b"))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        first.close()
        second.close()
        with PlanSetStore(path) as check:
            assert len(check) == 50
            assert check.get("a-0") == plan_doc
            assert check.get("b-24") == plan_doc

    def test_flush_truncates_wal(self, tmp_path, plan_doc):
        path = tmp_path / "store.db"
        with PlanSetStore(path) as store:
            store.put("sig-a", plan_doc)
            store.flush()
            wal = tmp_path / "store.db-wal"
            assert not wal.exists() or wal.stat().st_size == 0


class TestPersistence:
    """A store file written by one run is warm for the next.

    Locally this round-trips through two :class:`PlanSetStore`
    instances in one process.  The CI persistence leg additionally runs
    this module *twice* with ``REPRO_STORE_PERSIST_DB`` pointing at one
    database in a job tmpdir: the first pass populates it, the second
    pass must find the entry already there (a genuine cross-process
    reopen).
    """

    QUERY_SEED = 11

    def canonical_entry(self):
        query = QueryGenerator(seed=self.QUERY_SEED).generate(
            num_tables=3, shape="chain", num_params=1)
        signature = query_signature(query, scenario="cloud")
        return query, signature

    def test_store_file_survives_reopen(self, tmp_path):
        env_path = config.value("REPRO_STORE_PERSIST_DB")
        path = env_path or str(tmp_path / "persist.db")
        query, signature = self.canonical_entry()
        store = PlanSetStore(path)
        try:
            already_warm = store.get(signature) is not None
            if already_warm:
                # Second pass (CI persistence leg): the previous run's
                # write must be visible as an exact hit.
                assert store.counters.exact_hits == 1
                return
            assert env_path is None or len(store) == 0
            result = get_scenario("cloud").optimize(query, resolution=2)
            doc = encode_result(result)
            doc.setdefault("alpha", 0.0)
            doc.setdefault("guarantee", 1.0)
            store.register(signature, family=family_digest(
                query, scenario="cloud", resolution=2, options=None),
                scenario="cloud",
                stats_digest=statistics_digest(query),
                num_tables=query.num_tables,
                features=signature_features(query))
            assert store.put(signature, doc)
        finally:
            store.close()
        with PlanSetStore(path) as reopened:
            assert reopened.get(signature) is not None


class TestDependencyHygiene:
    STDLIB_OK = {"__future__", "collections", "dataclasses", "json",
                 "math", "os", "sqlite3", "threading", "warnings"}

    def test_store_package_imports_stdlib_only(self):
        package = REPO_ROOT / "src" / "repro" / "store"
        for module in sorted(package.glob("*.py")):
            tree = ast.parse(module.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    roots = {alias.name.split(".")[0]
                             for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    if node.level > 0:  # intra-package, fine
                        continue
                    roots = {(node.module or "").split(".")[0]}
                else:
                    continue
                foreign = roots - self.STDLIB_OK
                assert not foreign, (
                    f"{module.name} imports non-stdlib {sorted(foreign)}"
                    f" — the store tier must not grow dependencies")

    def test_no_new_runtime_dependencies(self):
        # The store rides on stdlib sqlite3: the project's runtime
        # dependency list must stay exactly numpy + scipy.
        text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        block = text.split("dependencies = [", 1)[1].split("]", 1)[0]
        deps = sorted(json.loads(f"[{line.strip().rstrip(',')}]")[0]
                      .split(">=")[0].strip()
                      for line in block.strip().splitlines())
        assert deps == ["numpy", "scipy"]
