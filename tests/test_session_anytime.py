"""Tests for the session-level anytime API.

Covers:

* ``OptimizerSession.optimize(precision=..., budget=...)`` on the serial
  and pooled paths — budget expiry mid-run returns a valid ``"partial"``
  guarantee without tearing the pool down (cooperative cancellation),
  including under the ``spawn`` start method;
* ``OptimizerSession.optimize_iter`` — successively tighter plan sets
  streamed as progress events.  Every session steps the run in the
  calling thread, so a pooled session streams the serial trail live and
  spawns nothing, with the same memo use, memo-hit accounting and
  failure error whatever the worker count; the session memo is
  installed only while the run is built, not between yields;
* warm-start alpha tags — a partial (coarse) cache entry never serves an
  exact request, and a tighter entry is never overwritten by a coarser
  one, also across caches sharing one plan-set store.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.api import (Budget, OptimizerSession, PlanSetStore,
                       WarmStartCache, decode_plan_set, encode_plan_set)
from repro.cost import CLOUD_METRICS
from repro.errors import OptimizationError
from repro.query import QueryGenerator
from repro.service.registry import ScenarioRegistry


def make_query(seed: int = 0, num_tables: int = 4):
    return QueryGenerator(seed=seed).generate(num_tables, "chain", 1)


#: LP budget that lands mid-ladder for the 4-table chain query above:
#: enough for the coarse rungs, not for the exact one.
MID_LADDER_LPS = 150


def _hung_anytime(payload):
    """Worker stub (module-level: picklable): anytime payloads hang."""
    from repro.service import session as session_module
    if payload[6] is not None:
        import time as _time
        _time.sleep(30.0)
    return session_module._real_optimize_payload(payload)


class TestAnytimeOptimize:
    def test_serial_budget_expiry_returns_valid_guarantee(self):
        query = make_query(seed=7)
        with OptimizerSession("cloud", warm_start=False) as session:
            partial = session.optimize(query, precision=0.0,
                                       budget=Budget(lps=MID_LADDER_LPS))
            exact = session.optimize(query)
        assert partial.status == "partial"
        assert partial.ok
        assert partial.alpha > 0.0
        assert partial.guarantee > 1.0
        assert partial.plan_set is not None
        assert partial.plan_set.alpha == partial.alpha
        # The guarantee is real: at sample points, the partial set covers
        # the exact frontier within the reported factor on every metric.
        for x in ([0.1], [0.5], [0.9]):
            for metric in ("time", "fees"):
                best_exact = min(e.cost.evaluate(x)[metric]
                                 for e in exact.plan_set.entries)
                best_partial = min(e.cost.evaluate(x)[metric]
                                   for e in partial.plan_set.entries)
                assert (best_partial
                        <= best_exact * partial.guarantee + 1e-9)

    def test_zero_budget_times_out_without_plan_set(self):
        query = make_query(seed=7)
        with OptimizerSession("cloud", warm_start=False) as session:
            item = session.optimize(query, precision=0.0,
                                    budget=Budget(lps=0))
        assert item.status == "timeout"
        assert not item.ok
        assert item.plan_set is None
        assert item.events  # the trail still shows what happened

    def test_unbudgeted_precision_runs_single_rung(self):
        query = make_query(seed=7, num_tables=3)
        with OptimizerSession("cloud", warm_start=False) as session:
            item = session.optimize(query, precision=0.25)
        assert item.status == "ok"
        assert item.alpha == 0.25
        rungs = [e for e in item.events if e.kind == "rung_completed"]
        assert len(rungs) == 1

    def test_precision_ladder_and_precision_must_agree(self):
        query = make_query(seed=7, num_tables=2)
        with OptimizerSession("cloud") as session, \
                pytest.raises(ValueError, match="end at precision"):
            session.optimize(query, precision=0.0,
                             precision_ladder=(0.5, 0.2))

    def test_pooled_budget_expiry_keeps_pool_alive(self):
        """Cooperative cancellation: the worker stops itself, the pool
        survives, and later calls reuse it."""
        query = make_query(seed=7)
        with OptimizerSession("cloud", workers=2,
                              warm_start=False) as session:
            partial = session.optimize(query, precision=0.0,
                                       budget=Budget(lps=MID_LADDER_LPS))
            assert partial.status == "partial"
            assert partial.alpha > 0.0
            assert partial.plan_set is not None
            assert session.pool_spawns == 1
            items = session.map([query])
            assert [item.status for item in items] == ["ok"]
            assert session.pool_spawns == 1  # no teardown, no respawn

    def test_spawn_context_budget_expiry(self):
        """Satellite: the cooperative budget works under spawn too."""
        query = make_query(seed=7)
        ctx = multiprocessing.get_context("spawn")
        with OptimizerSession("cloud", workers=2, mp_context=ctx,
                              warm_start=False) as session:
            partial = session.optimize(query, precision=0.0,
                                       budget=Budget(lps=MID_LADDER_LPS))
            assert partial.status == "partial", partial.error
            assert partial.alpha > 0.0
            assert session.pool_spawns == 1

    def test_session_deadline_backstops_hung_anytime_worker(self,
                                                            monkeypatch):
        """timeout_seconds still applies to pooled anytime calls: a hung
        worker yields a 'timeout' item and is recycled, like map()."""
        from repro.service import session as session_module

        real = session_module._optimize_payload
        monkeypatch.setattr(session_module, "_real_optimize_payload",
                            real, raising=False)
        monkeypatch.setattr(session_module, "_optimize_payload",
                            _hung_anytime)
        query = make_query(seed=7, num_tables=2)
        with OptimizerSession("cloud", workers=2, timeout_seconds=1.0,
                              warm_start=False) as session:
            item = session.optimize(query, precision=0.0,
                                    budget=Budget(seconds=30.0))
            assert item.status == "timeout"
            assert session._pool is None  # stuck worker recycled
            monkeypatch.setattr(session_module, "_optimize_payload",
                                real)
            assert session.map([query])[0].status == "ok"

    def test_pooled_matches_serial_anytime_result(self):
        query = make_query(seed=9, num_tables=3)
        with OptimizerSession("cloud", warm_start=False) as serial:
            a = serial.optimize(query, precision=0.1)
        with OptimizerSession("cloud", workers=2,
                              warm_start=False) as pooled:
            b = pooled.optimize(query, precision=0.1)
        assert (a.status, a.alpha, a.guarantee) == (b.status, b.alpha,
                                                    b.guarantee)
        assert len(a.plan_set.entries) == len(b.plan_set.entries)


class TestOptimizeIter:
    def test_serial_rungs_tighten(self):
        query = make_query(seed=13)
        with OptimizerSession("cloud", warm_start=False) as session:
            exact = session.optimize(query)
            rungs = [e for e in session.optimize_iter(query)
                     if e.kind == "rung_completed"]
        assert [e.alpha for e in rungs] == [0.5, 0.2, 0.05, 0.0]
        assert all(e.plan_set is not None for e in rungs)
        counts = [e.plan_count for e in rungs]
        assert counts == sorted(counts)
        # The final rung serves the same plan as the exact path.
        weights = {"time": 1.0, "fees": 0.3}
        assert (rungs[-1].plan_set.select([0.4], weights)[1]
                == exact.plan_set.select([0.4], weights)[1])

    def test_pooled_replay_matches_serial_trail(self):
        query = make_query(seed=13, num_tables=3)
        ladder = (0.5, 0.0)
        with OptimizerSession("cloud", warm_start=False) as serial:
            live = list(serial.optimize_iter(query,
                                             precision_ladder=ladder))
        with OptimizerSession("cloud", workers=2,
                              warm_start=False) as pooled:
            replay = list(pooled.optimize_iter(query,
                                               precision_ladder=ladder))
        assert [e.kind for e in replay] == [e.kind for e in live]
        live_rungs = [e for e in live if e.kind == "rung_completed"]
        replay_rungs = [e for e in replay if e.kind == "rung_completed"]
        assert ([(e.alpha, e.plan_count) for e in replay_rungs]
                == [(e.alpha, e.plan_count) for e in live_rungs])
        assert all(e.plan_set is not None for e in replay_rungs)

    def test_pooled_stream_runs_in_the_calling_thread(self):
        """A pooled session steps its stream in the calling thread: no
        pool and no other process starts, and each event is live — the
        coarse rung arrives before the exact rung has been optimized."""
        query = make_query(seed=3, num_tables=4)
        children = {p.pid for p in multiprocessing.active_children()}
        cache = WarmStartCache()
        with OptimizerSession("cloud", workers=2,
                              cache=cache) as session:
            iterator = session.optimize_iter(query,
                                             precision_ladder=(0.5, 0.0))
            first = next(iterator)
            assert first.kind == "rung_started"
            assert session.pool_spawns == 0
            assert {p.pid for p in multiprocessing.active_children()} \
                <= children
            signature = session._signature(
                query, "cloud", options=session._anytime_options(0.0))
            for event in iterator:
                if event.kind == "rung_completed":
                    break
            assert event.alpha == 0.5
            assert len(cache) == 1
            assert cache.load(signature).alpha == 0.5
            assert [e.kind for e in iterator][-1] == "rung_completed"
            assert cache.load(signature).alpha == 0.0
            assert session.pool_spawns == 0

    def test_memo_not_installed_between_yields(self):
        """A suspended stream leaves the thread's memo as it found it:
        a session-free optimization run meanwhile reports its own LP
        counts and adds nothing to the session memo, while the stream's
        run keeps feeding it."""
        from repro.api import optimize_query
        from repro.lp import shared_lp_cache

        other = QueryGenerator(seed=5).generate(3, "chain", 1)
        alone = optimize_query(other, "cloud").stats.lp_stats
        with OptimizerSession("cloud", warm_start=False) as session:
            stream = session.optimize_iter(make_query(seed=1, num_tables=3),
                                           precision_ladder=(0.5, 0.0))
            next(stream)
            assert shared_lp_cache() is not session.lp_memo
            size = len(session.lp_memo)
            meanwhile = optimize_query(other, "cloud").stats.lp_stats
            assert len(session.lp_memo) == size
            list(stream)
            assert len(session.lp_memo) > size
        assert ((meanwhile.solved, meanwhile.cache_hits)
                == (alone.solved, alone.cache_hits))

    def test_pooled_live_stream_feeds_warm_start_cache(self):
        """Each completed rung is cached under its alpha tag as it
        streams (the serial contract), not only at run end."""
        query = make_query(seed=3, num_tables=3)
        cache = WarmStartCache()
        with OptimizerSession("cloud", workers=2,
                              cache=cache) as session:
            iterator = session.optimize_iter(query,
                                             precision_ladder=(0.5, 0.0))
            for event in iterator:
                if event.kind == "rung_completed" and event.alpha > 0:
                    break  # abandon mid-stream after the coarse rung
            # The coarse rung made it into the cache (tagged with its
            # alpha) even though the iterator was dropped before the
            # exact rung finished.
            signature = session._signature(
                query, "cloud", options=session._anytime_options(0.0))
            entry = cache.load(signature)
        assert entry is not None
        assert entry.alpha == 0.5

    def test_budget_spans_whole_ladder(self):
        query = make_query(seed=13)
        with OptimizerSession("cloud", warm_start=False) as session:
            events = list(session.optimize_iter(
                query, budget=Budget(lps=MID_LADDER_LPS)))
        assert events[-1].kind == "budget_exhausted"
        rungs = [e for e in events if e.kind == "rung_completed"]
        assert rungs  # coarse rungs completed before exhaustion
        assert rungs[-1].alpha > 0.0

    def test_cached_hit_collapses_ladder(self):
        query = make_query(seed=13, num_tables=3)
        with OptimizerSession("cloud") as session:
            list(session.optimize_iter(query))  # populates the cache
            events = list(session.optimize_iter(query))
        assert [e.kind for e in events] == ["rung_completed"]
        assert events[0].alpha == 0.0
        assert events[0].plan_set is not None

    @pytest.mark.parametrize("call,workers,puts", [
        ("optimize_iter", 0, 4), ("optimize", 0, 1), ("optimize_iter", 2, 4),
    ], ids=["optimize_iter", "optimize", "optimize_iter-pooled"])
    def test_rungs_decode_once_each(self, monkeypatch, tmp_path, call,
                                    workers, puts):
        # Every rung is decoded once, for its event.  The streamed
        # rung's put, or the item's put of the last rung's document,
        # hands that plan set to the cache entry, so later hits on the
        # exact rung decode nothing.  A stream stores each rung once
        # (an item stores only the last), also when a pool runs it.
        from repro.service import cache as cache_module
        from repro.service import session as session_module
        decodes = []

        def counting(doc):
            decodes.append(doc)
            return decode_plan_set(doc)

        monkeypatch.setattr(cache_module, "decode_plan_set", counting)
        monkeypatch.setattr(session_module, "decode_plan_set", counting)
        query = make_query(seed=13, num_tables=3)
        exact = {"precision": 0.0, "budget": Budget(seconds=1e9)}
        with PlanSetStore(str(tmp_path / "plans.db")) as store, \
                OptimizerSession("cloud", workers=workers,
                                 cache=WarmStartCache(store=store)
                                 ) as session:
            if call == "optimize_iter":
                events = list(session.optimize_iter(query))
            else:
                events = session.optimize(query, **exact).events
            rungs = [e for e in events if e.kind == "rung_completed"]
            hits = [session.optimize(query, **exact) for _ in range(10)]
            store_puts = store.counters.puts
        assert [e.alpha for e in rungs] == [0.5, 0.2, 0.05, 0.0]
        assert [item.status for item in hits] == ["cached"] * 10
        assert len(decodes) == len(rungs)
        assert store_puts == puts
        assert all(item.plan_set is rungs[-1].plan_set for item in hits)

    def test_invalid_ladder_rejected(self):
        query = make_query(seed=13, num_tables=2)
        with OptimizerSession("cloud") as session, \
                pytest.raises(ValueError, match="decreasing"):
            list(session.optimize_iter(query,
                                       precision_ladder=(0.1, 0.5)))


def _failing_cost_model(query, resolution):
    """Module-level (picklable) cost-model factory that always fails."""
    raise RuntimeError("cost model unavailable")


@pytest.mark.parametrize("workers", [0, 2])
class TestStreamParity:
    """``optimize_iter`` behaves the same under either executor."""

    def test_stream_uses_session_memo(self, workers):
        query = make_query(seed=13, num_tables=4)
        ladder = (0.5, 0.0)
        with OptimizerSession("cloud", workers=workers,
                              warm_start=False) as session:
            # The first stream warms the session memo the second reads.
            list(session.optimize_iter(query, precision_ladder=ladder))
            assert len(session.lp_memo) > 0
            events = list(session.optimize_iter(query,
                                                precision_ladder=ladder))
            assert session.pool_spawns == 0
        last = [e for e in events if e.kind == "rung_completed"][-1]
        assert last.alpha == 0.0
        # Every LP of the ladder is in the warmed memo.
        assert last.lps_solved == 0

    def test_failed_run_raises_optimization_error(self, workers):
        registry = ScenarioRegistry()
        registry.register("failing", _failing_cost_model, CLOUD_METRICS)
        query = make_query(seed=13, num_tables=2)
        with OptimizerSession("failing", workers=workers, registry=registry,
                              warm_start=False) as session, \
                pytest.raises(OptimizationError,
                              match="cost model unavailable"):
            list(session.optimize_iter(query,
                                       precision_ladder=(0.5, 0.0)))

    def test_stream_counts_memo_hits(self, workers):
        query = make_query(seed=13, num_tables=3)
        with OptimizerSession("cloud", workers=workers,
                              warm_start=False) as session:
            list(session.optimize_iter(query, precision_ladder=(0.5, 0.0)))
            assert session.lp_cache_hits_total > 0


class TestWarmStartAlphaTags:
    def test_partial_entry_does_not_serve_exact_request(self):
        query = make_query(seed=7)
        with OptimizerSession("cloud") as session:
            partial = session.optimize(query, precision=0.0,
                                       budget=Budget(lps=MID_LADDER_LPS))
            assert partial.status == "partial"
            # Same signature, but the cached entry is tagged with the
            # coarse rung alpha: the exact request must re-optimize.
            exact = session.optimize(query, precision=0.0)
            assert exact.status == "ok"
            assert exact.alpha == 0.0
            # Now the exact entry is cached and served.
            again = session.optimize(query, precision=0.0)
            assert again.status == "cached"
            assert again.alpha == 0.0

    def test_coarse_put_never_overwrites_tighter_entry(self):
        cache = WarmStartCache()
        exact_doc = {"version": 1, "alpha": 0.0, "entries": []}
        coarse_doc = {"version": 1, "alpha": 0.5, "entries": []}
        cache.put("sig", exact_doc, alpha=0.0)
        cache.put("sig", coarse_doc, alpha=0.5)
        assert cache.load("sig").alpha == 0.0

    def test_get_honors_max_alpha(self):
        cache = WarmStartCache()
        doc = {"version": 1, "entries": []}
        cache.put("sig", doc, alpha=0.2)
        plan_set = cache.load("sig")  # permissive default
        assert plan_set is not None
        assert cache.load("sig", max_alpha=0.5) is plan_set
        assert cache.load("sig", max_alpha=0.1) is None
        assert cache.load("sig", max_alpha=0.2) is plan_set

    def test_shared_store_keeps_the_tighter_entry(self):
        """Two caches share one store: a coarse put from the second
        never shadows the first's exact entry, and a too-coarse memory
        entry falls back to the tighter stored one, decoded afresh."""
        doc_exact = {"version": 1, "alpha": 0.0, "entries": []}
        doc_coarse = {"version": 1, "alpha": 0.5, "guarantee": 3.0,
                      "entries": []}
        with PlanSetStore() as store:
            first = WarmStartCache(store=store)
            first.put("sig", doc_exact, alpha=0.0)
            # The second cache's memory tier is cold: its coarse put
            # lands in its memory, but the store keeps the exact entry.
            second = WarmStartCache(store=store)
            second.put("sig", doc_coarse, alpha=0.5)
            assert store.get("sig") == doc_exact
            assert first.load("sig").alpha == 0.0
            assert second.load("sig", max_alpha=0.0).alpha == 0.0
            # A coarse entry already decoded in memory is no answer to
            # an exact load: the tighter stored document is decoded.
            late = WarmStartCache(store=store)
            late.put("sig", doc_coarse, alpha=0.5)
            assert late.load("sig").alpha == 0.5
            exact = late.load("sig", max_alpha=0.0)
            assert encode_plan_set(exact) == encode_plan_set(
                decode_plan_set(doc_exact))
            assert late.load("sig", max_alpha=0.0) is exact

