"""Tests for the unified session API (repro.api / repro.service.session).

Covers the tentpole guarantees of the OptimizerSession redesign:

* lifecycle — context-manager close is idempotent, submit after close
  raises cleanly;
* persistent pool — workers are spawned once across consecutive batches
  (the legacy engine respawned per batch), and a pooled item reports the
  LP counts of a session-free run of its query;
* streaming — ``as_completed`` yields error-isolated items, ``map``
  stays deterministic;
* scenario registry — built-in ``"cloud"``/``"approx"`` resolve and
  custom registrations work.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.api import (OptimizerSession, available_scenarios, get_scenario,
                       optimize_query, query_signature)
from repro.bench import SweepPoint, queries_for_point
from repro.core import encode_result
from repro.cost import CLOUD_METRICS
from repro.lp import LPResultCache, install_shared_lp_cache
from repro.query import QueryGenerator
from repro.service import session as session_module
from repro.service.registry import ScenarioRegistry, default_registry


def make_queries(count: int, num_tables: int = 3, seed: int = 0):
    return [QueryGenerator(seed=seed + i).generate(num_tables, "chain", 1)
            for i in range(count)]


class TestLifecycle:
    def test_context_manager_and_idempotent_close(self):
        session = OptimizerSession("cloud")
        with session as s:
            assert s is session
        with pytest.raises(RuntimeError, match="closed"):
            session.submit(make_queries(1)[0])
        session.close()  # idempotent
        session.close()

    def test_submit_after_close_raises(self):
        session = OptimizerSession("cloud")
        session.close()
        (query,) = make_queries(1)
        with pytest.raises(RuntimeError, match="closed"):
            session.submit(query)
        with pytest.raises(RuntimeError, match="closed"):
            list(session.as_completed([query]))
        with pytest.raises(RuntimeError, match="closed"), session:
            pass

    def test_unknown_scenario_fails_fast(self):
        with pytest.raises(KeyError, match="available"):
            OptimizerSession("no-such-scenario")
        with OptimizerSession("cloud") as session, \
                pytest.raises(KeyError, match="available"):
            session.map(make_queries(1), scenario="no-such-scenario")

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerSession("cloud", workers=-1)
        with pytest.raises(ValueError):
            OptimizerSession("cloud", timeout_seconds=0)


def _pid_stamped(payload):
    """Worker stub recording the optimizing process id in the stats."""
    index, doc, stats, seconds = session_module._real_optimize_payload(
        payload)
    stats["pid"] = os.getpid()
    return index, doc, stats, seconds


class TestPersistentPool:
    def test_pool_spawned_once_across_two_batches(self, monkeypatch):
        """Regression: the legacy engine respawned its pool per batch."""
        monkeypatch.setattr(session_module, "_real_optimize_payload",
                            session_module._optimize_payload,
                            raising=False)
        monkeypatch.setattr(session_module, "_optimize_payload",
                            _pid_stamped)
        first_batch = make_queries(2, num_tables=2, seed=0)
        second_batch = make_queries(2, num_tables=2, seed=10)
        with OptimizerSession("cloud", workers=2,
                              warm_start=False) as session:
            first = session.map(first_batch)
            second = session.map(second_batch)
            assert session.pool_spawns == 1
            first_pids = {item.stats["pid"] for item in first}
            second_pids = {item.stats["pid"] for item in second}
            # Same worker processes served both batches.
            assert second_pids <= first_pids

    def test_pool_results_match_serial(self):
        queries = make_queries(3, num_tables=2)
        with OptimizerSession("cloud", warm_start=False) as serial:
            a = serial.map(queries)
        with OptimizerSession("cloud", workers=2,
                              warm_start=False) as pooled:
            b = pooled.map(queries)
        assert [i.index for i in b] == [0, 1, 2]
        for x, y in zip(a, b):
            assert y.status == "ok"
            assert len(x.plan_set.entries) == len(y.plan_set.entries)

    def test_lp_memo_accumulates_at_session_scope(self):
        queries = make_queries(2, num_tables=2)
        with OptimizerSession("cloud", warm_start=False) as session:
            session.map(queries)
            assert session.lp_memo is not None and len(session.lp_memo) > 0

    def test_pooled_items_report_session_free_lp_counts(self):
        """A pool task runs on its own run's LP memo: whichever worker
        runs an item, and whatever that worker ran before, its LP counts
        equal a session-free optimization of its query."""
        qs = queries_for_point(SweepPoint(3, "chain", 1), 4)
        with OptimizerSession("cloud", workers=2,
                              warm_start=False) as session:
            items = session.map(qs[:2]) + session.map(qs[2:])
            assert session.pool_spawns == 1
            assert len(session.lp_memo) == 0
        for query, item in zip(qs, items):
            alone = optimize_query(query).stats
            assert item.status == "ok"
            assert item.stats["lps_solved"] == alone.lps_solved
            assert item.stats["lp_cache_hits"] == alone.lp_stats.cache_hits

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_forked_workers_start_without_the_forking_threads_memo(self):
        """Forked workers inherit the memory of the thread that forks
        them, including the LP memo it has installed; they must still
        run every task on its own run's memo."""
        qs = queries_for_point(SweepPoint(3, "chain", 1), 4)
        alone = [optimize_query(query).stats for query in qs]
        memo = LPResultCache()
        previous = install_shared_lp_cache(memo)
        try:
            for query in qs:
                optimize_query(query)
            assert len(memo) > 0
            with OptimizerSession(
                    "cloud", workers=2, warm_start=False,
                    mp_context=multiprocessing.get_context("fork")
                    ) as session:
                items = session.map(qs)
        finally:
            install_shared_lp_cache(previous)
        for item, stats in zip(items, alone):
            assert item.status == "ok"
            assert item.stats["lps_solved"] == stats.lps_solved
            assert item.stats["lp_cache_hits"] == stats.lp_stats.cache_hits

    def test_broken_pool_recovers(self):
        """A hard worker crash must not poison the persistent pool."""
        queries = make_queries(2, num_tables=2)
        with OptimizerSession("cloud", workers=2,
                              warm_start=False) as session:
            assert all(item.ok for item in session.map(queries))
            for process in list(session._pool._processes.values()):
                process.kill()
            # The crash may surface as error items once (isolation);
            # the session must respawn the pool and recover.
            for __ in range(3):
                items = session.map(queries)
                if all(item.ok for item in items):
                    break
            assert all(item.ok for item in items)
            assert session.pool_spawns >= 2


def _slow_leader(payload):
    """Worker stub: query 0 stalls far past any test deadline."""
    if payload[0] == 0:
        import time as _time
        _time.sleep(30.0)
    return session_module._real_optimize_payload(payload)


class TestDeadlines:
    def test_deadline_recycles_stuck_workers(self, monkeypatch):
        """A missed deadline must not leave workers burning CPU: the
        stuck worker is terminated and the pool respawns lazily."""
        monkeypatch.setattr(session_module, "_real_optimize_payload",
                            session_module._optimize_payload,
                            raising=False)
        monkeypatch.setattr(session_module, "_optimize_payload",
                            _slow_leader)
        queries = make_queries(2, num_tables=2)
        with OptimizerSession("cloud", workers=2, timeout_seconds=1.0,
                              warm_start=False) as session:
            items = session.map(queries)
            assert items[0].status == "timeout"
            assert items[1].status == "ok"
            # The stuck worker was terminated and the pool discarded.
            assert session._pool is None
            monkeypatch.setattr(session_module, "_optimize_payload",
                                session_module._real_optimize_payload)
            again = session.map(queries)
            assert [item.status for item in again] == ["ok", "ok"]
            assert session.pool_spawns == 2


class TestStreaming:
    def test_as_completed_yields_every_query(self):
        queries = make_queries(3)
        with OptimizerSession("cloud") as session:
            items = list(session.as_completed(queries))
        assert sorted(item.index for item in items) == [0, 1, 2]
        assert all(item.ok for item in items)

    def test_serial_as_completed_is_lazy(self, monkeypatch):
        """The in-process executor runs one leader per requested item:
        input order, and an abandoned iterator stops optimizing."""
        real = session_module._optimize_payload
        calls = []

        def counting(payload):
            calls.append(payload[0])
            return real(payload)

        monkeypatch.setattr(session_module, "_optimize_payload", counting)
        queries = make_queries(3)
        with OptimizerSession("cloud", warm_start=False) as session:
            items = session.as_completed(queries)
            first = next(items)
            assert calls == [0]
            rest = list(items)
        assert [item.index for item in [first, *rest]] == [0, 1, 2]
        assert calls == [0, 1, 2]

    def test_as_completed_error_isolated_poisoned_query(self, monkeypatch):
        real = session_module._optimize_payload

        def poisoned(payload):
            if payload[0] == 1:
                raise RuntimeError("poisoned query")
            return real(payload)

        monkeypatch.setattr(session_module, "_optimize_payload", poisoned)
        queries = make_queries(3)
        with OptimizerSession("cloud") as session:
            items = sorted(session.as_completed(queries),
                           key=lambda item: item.index)
        assert [item.status for item in items] == ["ok", "error", "ok"]
        assert "poisoned query" in items[1].error
        assert items[1].plan_set is None

    def test_submit_future_resolves_to_item(self):
        (query,) = make_queries(1)
        with OptimizerSession("cloud") as session:
            item = session.submit(query).result(timeout=60)
            assert item.status == "ok"
            assert item.plan_set.entries
            # A second submit of the same query warm-starts.
            again = session.submit(query).result(timeout=60)
            assert again.status == "cached"

    def test_map_deterministic_and_warm(self):
        queries = make_queries(3)
        with OptimizerSession("cloud") as session:
            first = session.map(queries)
            assert [item.index for item in first] == [0, 1, 2]
            assert [item.status for item in first] == ["ok"] * 3
            second = session.map(queries)
            assert [item.status for item in second] == ["cached"] * 3
            for a, b in zip(first, second):
                assert (a.plan_set.select([0.4], {"time": 1.0})[1]
                        == b.plan_set.select([0.4], {"time": 1.0})[1])

    def test_in_batch_duplicates_share_work(self):
        (query,) = make_queries(1)
        same = QueryGenerator(seed=0).generate(3, "chain", 1)
        with OptimizerSession("cloud") as session:
            items = session.map([query, same])
        assert [item.status for item in items] == ["ok", "cached"]
        assert items[1].plan_set is items[0].plan_set

    def test_warm_start_off_reoptimizes_duplicates(self):
        """warm_start=False forces every copy to optimize (legacy
        contract; throughput benchmarks rely on it)."""
        (query,) = make_queries(1)
        same = QueryGenerator(seed=0).generate(3, "chain", 1)
        with OptimizerSession("cloud", warm_start=False) as session:
            items = session.map([query, same])
        assert [item.status for item in items] == ["ok", "ok"]
        assert all(item.stats is not None for item in items)


class TestScenarioRegistry:
    def test_builtins_resolve(self):
        names = available_scenarios()
        assert "cloud" in names and "approx" in names
        def names(scenario):
            return tuple(m.name for m in get_scenario(scenario).metrics)
        assert names("cloud") == ("time", "fees")
        assert names("approx") == ("time", "precision_loss")

    def test_approx_scenario_end_to_end(self):
        (query,) = make_queries(1)
        with OptimizerSession("approx") as session:
            item = session.optimize(query)
        assert item.ok and item.scenario == "approx"
        cost = item.plan_set.entries[0].cost.evaluate([0.5])
        assert set(cost) == {"time", "precision_loss"}

    def test_scenarios_key_the_warm_cache_separately(self):
        (query,) = make_queries(1)
        assert (query_signature(query, scenario="cloud")
                != query_signature(query, scenario="approx"))
        with OptimizerSession("cloud") as session:
            a = session.optimize(query)
            b = session.optimize(query, scenario="approx")
        assert a.status == "ok" and b.status == "ok"  # no cross-hit
        assert a.signature != b.signature

    def test_register_custom_scenario(self):
        registry = ScenarioRegistry()

        def factory(query, resolution):
            from repro.cloud import CloudCostModel
            return CloudCostModel(query, resolution=resolution)

        registry.register("custom-cloud", factory, CLOUD_METRICS,
                          description="test registration")
        with pytest.raises(ValueError, match="already registered"):
            registry.register("custom-cloud", factory, CLOUD_METRICS)
        registry.register("custom-cloud", factory, CLOUD_METRICS,
                          replace=True)
        (query,) = make_queries(1)
        result = registry.get("custom-cloud").optimize(query)
        assert encode_result(result) == encode_result(
            get_scenario("cloud").optimize(query))

    def test_register_scenario_in_default_registry(self):
        def factory(query, resolution):
            from repro.cloud import CloudCostModel
            return CloudCostModel(query, resolution=resolution)

        name = "test-default-registration"
        default_registry().register(name, factory, CLOUD_METRICS,
                                    replace=True)
        try:
            assert name in available_scenarios()
            (query,) = make_queries(1)
            with OptimizerSession(name) as session:
                assert session.optimize(query).ok
        finally:
            default_registry()._scenarios.pop(name, None)

