"""Warm-start seeding from the store tier, through sessions and gateway.

The serving claim under test: a session backed by a
:class:`repro.store.PlanSetStore` that has seen a *similar* query
(same structural family, drifted statistics) reaches its first
guarantee cheaper than a cold run — by seeding the DP table with the
neighbor's plan subtrees and jumping the precision ladder straight to
the tight rungs — while the final exact plan set stays bit-identical
to a cold run's (the exact rung re-runs the full DP; seeds only ever
add candidate incumbents, never remove candidates).  Both seeding
breadths are covered, with one and with two parameters.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro.service.session as session_module
from repro.api import (Budget, OptimizerSession, PlanSetStore,
                       WarmStartCache, encode_plan_set)
from repro.bench import drift_statistics as drift_query
from repro.core import (DEFAULT_PRECISION_LADDER, DEFAULT_SEED_CAP,
                        SEED_JUMP_ALPHA, trim_ladder_for_seed)
from repro.query import QueryGenerator
from repro.serve import GatewayConfig, ServingGateway
from repro.service.session import SEED_ALL_IN_LPS

#: Anytime arguments of an exact, unbounded call (the seeding path).
EXACT = {"precision": 0.0, "budget": Budget(seconds=1e9)}


@pytest.fixture()
def family():
    base = QueryGenerator(seed=21).generate(num_tables=3, shape="star",
                                            num_params=1)
    return base, drift_query(base, seed=99)


@pytest.fixture()
def started_runs(monkeypatch):
    """Every run the session module starts, to read its seed breadth
    (``seed_cap``) and ``seeded_plans`` afterwards."""
    runs = []
    start = session_module._start_run

    def spy(*args, **kwargs):
        run = start(*args, **kwargs)
        runs.append(run)
        return run

    monkeypatch.setattr(session_module, "_start_run", spy)
    return runs


def warm_store(base: Query, *, resolution: int = 2,
               repair_lps: float | None = None) -> PlanSetStore:
    """A store already holding the base query's exact plan set.

    With ``repair_lps`` the stored document is re-put carrying that
    recorded repair cost, which picks the seeding breadth of runs
    seeded from it.
    """
    store = PlanSetStore()
    with OptimizerSession("cloud", resolution=resolution,
                          cache=WarmStartCache(store=store)) as session:
        item = session.optimize(base, **EXACT)
        assert item.status == "ok"
    assert len(store) >= 1
    if repair_lps is not None:
        document = dict(store.get(item.signature), repair_lps=repair_lps)
        assert store.put(item.signature, document)
    return store


def plan_set_bytes(item) -> str:
    return json.dumps(encode_plan_set(item.plan_set), sort_keys=True)


def rung_alphas(session: OptimizerSession, query: Query, **kwargs):
    return [event.alpha for event in session.optimize_iter(query, **kwargs)
            if event.kind == "rung_completed"]


class TestLadderTrim:
    def test_trims_to_tight_rungs(self):
        assert trim_ladder_for_seed(DEFAULT_PRECISION_LADDER) == (0.05, 0.0)
        assert trim_ladder_for_seed((0.5, 0.2, 0.1, 0.0),
                                    jump_alpha=0.1) == (0.1, 0.0)

    def test_all_coarse_keeps_target(self):
        assert trim_ladder_for_seed((0.5, 0.2),
                                    jump_alpha=0.05) == (0.2,)

    def test_noop_when_already_tight(self):
        assert trim_ladder_for_seed((0.05, 0.0)) == (0.05, 0.0)
        assert SEED_JUMP_ALPHA == 0.05


class TestSessionSeeding:
    def test_near_miss_seeds_and_final_set_bit_identical(self, family):
        base, drifted = family
        store = warm_store(base)
        with OptimizerSession(
                "cloud", cache=WarmStartCache(store=store)) as session:
            warm = session.optimize(drifted, precision=0.0,
                                    budget=Budget(seconds=1e9))
            assert session.store_seed_hits == 1
            assert session.store_seed_misses == 0
        with OptimizerSession("cloud") as session:
            cold = session.optimize(drifted, precision=0.0,
                                    budget=Budget(seconds=1e9))
        assert warm.status == cold.status == "ok"
        assert warm.alpha == cold.alpha == 0.0
        assert encode_plan_set(warm.plan_set) == encode_plan_set(
            cold.plan_set)
        store.close()

    def test_seeded_run_skips_coarse_rungs(self, family):
        base, drifted = family
        store = warm_store(base)
        with OptimizerSession(
                "cloud", cache=WarmStartCache(store=store)) as session:
            alphas = rung_alphas(session, drifted)
            assert session.store_seed_hits == 1
        assert tuple(alphas) == (0.05, 0.0)
        with OptimizerSession("cloud") as session:
            assert tuple(rung_alphas(session, drifted)) == \
                DEFAULT_PRECISION_LADDER
        store.close()

    def test_explicit_ladder_is_never_trimmed(self, family):
        base, drifted = family
        store = warm_store(base)
        with OptimizerSession(
                "cloud", cache=WarmStartCache(store=store)) as session:
            alphas = rung_alphas(session, drifted,
                                 precision_ladder=(0.5, 0.0))
            assert session.store_seed_hits == 1  # seeded, not trimmed
        assert tuple(alphas) == (0.5, 0.0)
        store.close()

    def test_exact_store_hit_short_circuits_seeding(self, family):
        base, drifted = family
        store = warm_store(base)
        with OptimizerSession(
                "cloud", cache=WarmStartCache(store=store)) as session:
            first = session.optimize(drifted, precision=0.0,
                                     budget=Budget(seconds=1e9))
            assert first.status == "ok"
        # A later session sees the drifted query's own exact plan set in
        # the store: exact hit, no optimizer run, no seed lookup.
        with OptimizerSession(
                "cloud", cache=WarmStartCache(store=store)) as session:
            again = session.optimize(drifted, precision=0.0,
                                     budget=Budget(seconds=1e9))
            assert again.status == "cached"
            assert session.store_seed_hits == 0
        assert encode_plan_set(again.plan_set) == encode_plan_set(
            first.plan_set)
        store.close()

    def test_pooled_run_ships_seed_across_processes(self, family):
        base, drifted = family
        store = warm_store(base)
        with OptimizerSession(
                "cloud", workers=2,
                cache=WarmStartCache(store=store)) as session:
            warm = session.optimize(drifted, precision=0.0,
                                    budget=Budget(seconds=1e9))
            assert warm.status == "ok"
            assert session.store_seed_hits == 1
        with OptimizerSession("cloud") as session:
            cold = session.optimize(drifted, precision=0.0,
                                    budget=Budget(seconds=1e9))
        assert encode_plan_set(warm.plan_set) == encode_plan_set(
            cold.plan_set)
        store.close()

    def test_unrelated_family_does_not_seed(self, family):
        base, _ = family
        store = warm_store(base)
        other = QueryGenerator(seed=5).generate(num_tables=4,
                                                shape="chain",
                                                num_params=1)
        with OptimizerSession(
                "cloud", cache=WarmStartCache(store=store)) as session:
            item = session.optimize(other, precision=0.0,
                                    budget=Budget(seconds=1e9))
            assert item.status == "ok"
            assert session.store_seed_hits == 0
            assert session.store_seed_misses == 1
        store.close()


class TestSeedBreadth:
    def test_stored_documents_carry_repair_cost(self, family):
        base, _ = family
        store = PlanSetStore()
        with OptimizerSession(
                "cloud", cache=WarmStartCache(store=store)) as session:
            item = session.optimize(base, precision=0.0,
                                    budget=Budget(seconds=1e9))
            assert item.status == "ok"
            doc = store.get(item.signature)
        assert float(doc["repair_lps"]) > 0
        store.close()

    def test_breadth_policy_follows_recorded_repair_cost(self):
        with OptimizerSession("cloud") as session:
            cheap = {"repair_lps": 10.0}
            expensive = {"repair_lps": SEED_ALL_IN_LPS}
            # A cheap neighbor (and an untagged legacy document) stays on
            # the conservative one-incumbent arm; a neighbor whose repair
            # was expensive adopts the whole frontier (cap None).
            assert session._seed_breadth(cheap) == DEFAULT_SEED_CAP
            assert session._seed_breadth({}) == DEFAULT_SEED_CAP
            assert session._seed_breadth({"repair_lps": "junk"}) == \
                DEFAULT_SEED_CAP
            assert session._seed_breadth(expensive) is None

    def test_whole_frontier_seed_stays_bit_identical(self, family,
                                                     started_runs):
        base, drifted = family
        # The base re-put as an expensive repair: its neighbors adopt
        # the whole frontier.
        store = warm_store(base, repair_lps=SEED_ALL_IN_LPS)
        with OptimizerSession(
                "cloud", cache=WarmStartCache(store=store)) as session:
            warm = session.optimize(drifted, precision=0.0,
                                    budget=Budget(seconds=1e9))
            assert session.store_seed_hits == 1
        run = started_runs[-1]
        assert run.seed_cap is None and run.seeded_plans > 0
        with OptimizerSession("cloud") as session:
            cold = session.optimize(drifted, precision=0.0,
                                    budget=Budget(seconds=1e9))
        assert encode_plan_set(warm.plan_set) == encode_plan_set(
            cold.plan_set)
        store.close()


class TestTwoParameterSeeding:
    """Both breadth arms on a 2-parameter family: a 3-table chain at
    resolution 1, drifted statistics, seeded from the base's exact set.
    """

    RESOLUTION = 1

    @pytest.fixture(scope="class")
    def two_param_family(self):
        base = QueryGenerator(seed=71).generate(num_tables=3,
                                                shape="chain",
                                                num_params=2)
        drifted = drift_query(base, seed=99)
        with OptimizerSession("cloud",
                              resolution=self.RESOLUTION) as session:
            cold = session.optimize(drifted, **EXACT)
        assert cold.status == "ok" and cold.alpha == 0.0
        return base, drifted, plan_set_bytes(cold)

    def seeded(self, store, drifted):
        with OptimizerSession("cloud", resolution=self.RESOLUTION,
                              cache=WarmStartCache(store=store)) as session:
            warm = session.optimize(drifted, **EXACT)
            assert session.store_seed_hits == 1
        store.close()
        assert warm.status == "ok" and warm.alpha == 0.0
        return warm

    def test_cheap_neighbor_seeds_one_incumbent(self, two_param_family,
                                                started_runs):
        base, drifted, cold_bytes = two_param_family
        store = warm_store(base, resolution=self.RESOLUTION)
        # The base run's LP count is the repair cost its document
        # records: below the whole-frontier threshold.
        (base_run,) = started_runs
        assert 0 < base_run.result().stats.lps_solved < SEED_ALL_IN_LPS
        warm = self.seeded(store, drifted)
        run = started_runs[-1]
        assert run.seed_cap == DEFAULT_SEED_CAP and run.seeded_plans > 0
        assert plan_set_bytes(warm) == cold_bytes

    def test_expensive_neighbor_seeds_whole_frontier(self, two_param_family,
                                                     started_runs):
        base, drifted, cold_bytes = two_param_family
        store = warm_store(base, resolution=self.RESOLUTION,
                           repair_lps=SEED_ALL_IN_LPS)
        warm = self.seeded(store, drifted)
        run = started_runs[-1]
        assert run.seed_cap is None and run.seeded_plans > 0
        assert plan_set_bytes(warm) == cold_bytes


class TestGatewaySharedStore:
    def run_async(self, coroutine):
        return asyncio.run(coroutine)

    def test_shards_share_one_store(self, tmp_path, family):
        base, drifted = family
        path = tmp_path / "gateway.db"

        async def scenario():
            gateway = ServingGateway(GatewayConfig(
                shards=2, store_path=str(path)))
            await gateway.start()
            try:
                assert gateway.store is not None
                for shard in gateway.shards:
                    assert shard.session.cache.store is gateway.store
                # A plan set optimized on shard 0 is a store-tier hit
                # for shard 1 — routing pins signatures to shards, but
                # the persistent tier spans them all.
                session0 = gateway.shards[0].session
                session1 = gateway.shards[1].session
                item = session0.optimize(base, precision=0.0,
                                         budget=Budget(seconds=1e9))
                assert item.status == "ok"
                hit = session1.cache.get_entry(item.signature)
                assert hit is not None and hit[1] == 0.0
                # ... and seeds shard 1's near-miss runs.
                warm = session1.optimize(drifted, precision=0.0,
                                         budget=Budget(seconds=1e9))
                assert warm.status == "ok"
                assert session1.store_seed_hits == 1
                metrics = gateway.metrics_doc()
                assert metrics["store"]["entries"] >= 1
                assert metrics["shards"][1]["store_seed_hits"] == 1
                # Drain checkpoints the shared WAL ...
                assert await gateway.drain(timeout=5.0)
                wal = tmp_path / "gateway.db-wal"
                assert not wal.exists() or wal.stat().st_size == 0
            finally:
                await gateway.stop()
            # ... and stop() closes the store cleanly.
            assert gateway.store is None

        self.run_async(scenario())
        # The database file alone (no WAL) holds everything written.
        with PlanSetStore(path) as reopened:
            assert len(reopened) >= 1

    def test_gateway_without_store_path_has_no_store(self):
        async def scenario():
            gateway = ServingGateway(GatewayConfig(shards=1))
            await gateway.start()
            try:
                assert gateway.store is None
                assert "store" not in gateway.metrics_doc()
            finally:
                await gateway.stop()

        self.run_async(scenario())
