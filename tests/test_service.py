"""Tests for the session's batch contract (``OptimizerSession.map``).

Pins what a batch call must keep honoring on top of the session API:
signatures, input ordering, per-query error isolation, deadlines and
warm starts.  Streaming, pool lifecycle and scenarios are covered in
``test_session.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.api import OptimizerSession, optimize_query
from repro.bench.workloads import SweepPoint, queries_for_point
from repro.core import (PWLRRPAOptions, PlanSelector, decode_plan_set,
                        encode_plan_set)
from repro.query import QueryGenerator
from repro.service import WarmStartCache, query_signature
from repro.service import cache as cache_module
from repro.service import session as session_module
from repro.service.signature import family_digest


def make_queries(count: int, num_tables: int = 3, seed: int = 0):
    return [QueryGenerator(seed=seed + i).generate(num_tables, "chain", 1)
            for i in range(count)]


class TestQuerySignature:
    def test_deterministic_and_regeneration_stable(self):
        a = QueryGenerator(seed=5).generate(3, "chain", 1)
        b = QueryGenerator(seed=5).generate(3, "chain", 1)
        assert query_signature(a) == query_signature(b)

    def test_sensitive_to_workload_and_config(self):
        base = QueryGenerator(seed=5).generate(3, "chain", 1)
        other = QueryGenerator(seed=6).generate(3, "chain", 1)
        assert query_signature(base) != query_signature(other)
        assert (query_signature(base, resolution=2)
                != query_signature(base, resolution=3))
        assert (query_signature(base)
                != query_signature(base, options=PWLRRPAOptions(
                    approximation_factor=0.1)))

    def test_digests_are_pinned(self):
        # Stored plan sets are keyed by these digests, so a change in
        # how the signature documents are built must not move them.
        query = queries_for_point(
            SweepPoint(num_tables=3, shape="chain", num_params=1,
                       resolution=2), count=1, base_seed=0)[0]
        options = PWLRRPAOptions(approximation_factor=0.05)
        assert query_signature(query) == (
            "5ea2cb79efdece30bb5ff21efbbfd167"
            "0ae7dff931d14e408310c63a82018298")
        assert family_digest(query) == (
            "085730dc309ca51285e8e4b6d816f27c"
            "75e6abadf5e7caa3d9c85b5153ec93db")
        assert query_signature(query, scenario="approx", resolution=1,
                               options=options) == (
            "c8d4931573384c061b3308382df69f0e"
            "afdf7fead0d4ac7589a7e626ab79b124")
        assert family_digest(query, scenario="approx", resolution=1,
                             options=options) == (
            "c79d28e51032e13cbec64d1c8e73d27e"
            "fa941138f5f5bcb5decb2701472ababe")


class TestBatchOrderingAndResults:
    def test_results_in_input_order(self):
        queries = make_queries(4)
        with OptimizerSession("cloud") as session:
            items = session.map(queries)
        assert [item.index for item in items] == [0, 1, 2, 3]
        assert all(item.status == "ok" for item in items)
        assert all(item.plan_set.entries for item in items)

    def test_plan_sets_match_direct_optimization(self):
        (query,) = make_queries(1)
        with OptimizerSession("cloud") as session:
            (item,) = session.map([query])
        direct = optimize_query(query, "cloud", resolution=2)
        x = [0.5]
        plan, cost = item.plan_set.select(x, {"time": 1.0, "fees": 0.5})
        picked = PlanSelector(direct).by_weighted_sum(
            x, {"time": 1.0, "fees": 0.5})
        assert repr(plan) == repr(picked.plan)
        assert cost == pytest.approx(picked.cost)

    def test_process_pool_matches_serial(self):
        queries = make_queries(3, num_tables=2)
        with OptimizerSession("cloud") as session:
            serial = session.map(queries)
        with OptimizerSession("cloud", workers=2) as session:
            pooled = session.map(queries)
        assert [i.index for i in pooled] == [0, 1, 2]
        for a, b in zip(serial, pooled):
            assert b.status == "ok"
            assert len(a.plan_set.entries) == len(b.plan_set.entries)


class TestErrorIsolation:
    def test_one_failure_does_not_poison_the_batch(self, monkeypatch):
        queries = make_queries(3)
        real = session_module._optimize_payload

        def flaky(payload):
            if payload[0] == 1:
                raise RuntimeError("injected worker failure")
            return real(payload)

        monkeypatch.setattr(session_module, "_optimize_payload", flaky)
        with OptimizerSession("cloud") as session:
            items = session.map(queries)
        assert [item.status for item in items] == ["ok", "error", "ok"]
        assert "injected worker failure" in items[1].error
        assert items[1].plan_set is None
        assert items[0].ok and items[2].ok


def _sleepy_leader(payload):
    """Worker stub: query 0 stalls far past any test deadline.

    Module-level so the process pool can pickle it (the forked workers
    inherit the monkeypatched module state).
    """
    if payload[0] == 0:
        import time as _time
        _time.sleep(5.0)
    return session_module._real_optimize_payload(payload)


class TestTimeouts:
    def test_deadline_isolates_slow_queries(self, monkeypatch):
        import time

        monkeypatch.setattr(session_module, "_real_optimize_payload",
                            session_module._optimize_payload,
                            raising=False)
        monkeypatch.setattr(session_module, "_optimize_payload",
                            _sleepy_leader)
        queries = make_queries(2, num_tables=2)
        with OptimizerSession("cloud", workers=2,
                              timeout_seconds=1.0) as session:
            started = time.monotonic()
            items = session.map(queries)
            elapsed = time.monotonic() - started
        assert items[0].status == "timeout"
        assert items[0].plan_set is None
        assert items[1].status == "ok"
        # The batch returns at the deadline instead of stalling on the
        # abandoned worker (terminated with the recycled pool).
        assert elapsed < 4.0


class TestWarmStartCache:
    def test_hit_and_miss_accounting(self):
        queries = make_queries(2)
        with OptimizerSession("cloud") as session:
            first = session.map(queries)
            assert [i.status for i in first] == ["ok", "ok"]
            assert session.cache.hits == 0
            second = session.map(queries)
            assert [i.status for i in second] == ["cached", "cached"]
            assert session.cache.hits == 2
        # Cached plan sets select identically to fresh ones.
        for a, b in zip(first, second):
            assert (a.plan_set.select([0.4], {"time": 1.0})[1]
                    == b.plan_set.select([0.4], {"time": 1.0})[1])

    def test_duplicates_within_one_batch_share_work(self):
        (query,) = make_queries(1)
        same = QueryGenerator(seed=0).generate(3, "chain", 1)
        with OptimizerSession("cloud") as session:
            items = session.map([query, same])
        assert [i.status for i in items] == ["ok", "cached"]
        assert items[1].ok

    def test_warm_start_disabled(self):
        queries = make_queries(1)
        with OptimizerSession("cloud", warm_start=False) as session:
            session.map(queries)
            items = session.map(queries)
            assert items[0].status == "ok"
            assert len(session.cache) == 0

    def test_lru_bound(self):
        cache = WarmStartCache(maxsize=2)
        for i in range(4):
            cache.put(f"sig{i}", {"version": 1, "entries": []})
        assert len(cache) == 2
        assert cache.load("sig0") is None
        assert cache.load("sig3") is not None

    def test_undecodable_memory_entry_reoptimizes(self):
        queries = make_queries(1)
        with OptimizerSession("cloud") as session:
            session.cache.put(query_signature(queries[0]), {"version": 999})
            items = session.map(queries)
            assert items[0].status == "ok"
            # The failed decode counts as a miss and drops the entry, so
            # the re-optimized plan set takes its place.
            assert (session.cache.hits, session.cache.misses) == (0, 1)
            assert session.map(queries)[0].status == "cached"

    def test_repeated_hits_decode_once(self, monkeypatch):
        # Decodes are counted in both modules that bind the decoder: the
        # miss decodes its document once and hands the plan set to the
        # cache entry it puts, so no hit decodes it again.
        decodes = []

        def counting(doc):
            decodes.append(doc)
            return decode_plan_set(doc)

        monkeypatch.setattr(cache_module, "decode_plan_set", counting)
        monkeypatch.setattr(session_module, "decode_plan_set", counting)
        queries = make_queries(1)
        with OptimizerSession("cloud") as session:
            miss = session.map(queries)[0]
            assert miss.status == "ok"
            hits = [session.map(queries)[0] for _ in range(10)]
            assert (session.cache.hits, session.cache.misses) == (10, 1)
        assert [item.status for item in hits] == ["cached"] * 10
        assert len(decodes) == 1
        # One read-only instance answers the miss and every hit.
        assert all(item.plan_set is miss.plan_set for item in hits)
        assert len({json.dumps(encode_plan_set(item.plan_set),
                               sort_keys=True)
                    for item in [miss, *hits]}) == 1
        with pytest.raises(AttributeError):
            hits[0].plan_set.entries = ()

    def test_put_keeps_the_callers_decode(self, monkeypatch):
        decodes = []

        def counting(doc):
            decodes.append(doc)
            return decode_plan_set(doc)

        monkeypatch.setattr(cache_module, "decode_plan_set", counting)
        cache = WarmStartCache()
        exact = {"version": 1, "alpha": 0.0, "guarantee": 1.0,
                 "entries": []}
        coarse = {"version": 1, "alpha": 0.5, "guarantee": 3.375,
                  "entries": []}
        plan_set = decode_plan_set(exact)
        cache.put("sig", exact, alpha=0.0, plan_set=plan_set)
        assert cache.load("sig") is plan_set
        # A refused coarser put attaches nothing: the tighter entry
        # keeps its document and its decoded set.
        cache.put("sig", coarse, alpha=0.5,
                  plan_set=decode_plan_set(coarse))
        assert cache.load("sig") is plan_set
        assert cache.load("sig").alpha == 0.0
        assert decodes == []
        assert (cache.hits, cache.misses) == (3, 0)

    def test_replaced_or_evicted_entry_decodes_afresh(self):
        cache = WarmStartCache(maxsize=1)
        first = {"version": 1, "guarantee": 1.0, "entries": []}
        second = {"version": 1, "guarantee": 2.0, "entries": []}
        cache.put("sig", first)
        decoded = cache.load("sig")
        assert cache.load("sig") is decoded
        cache.put("sig", second)
        replaced = cache.load("sig")
        assert replaced.guarantee == 2.0
        cache.put("other", first)  # evicts "sig" with its plan set
        cache.put("sig", second)
        assert cache.load("sig") is not replaced
