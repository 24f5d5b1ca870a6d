"""Tests for the serving gateway (``repro.serve``).

Covers the wire protocol (query round trips, request validation), the
admission layer (tenant token buckets, capacity backpressure, drain),
signature-affine routing, the end-to-end HTTP contract (one shared
gateway: bit-identical plan sets vs. a direct session, deadline
partials with guarantees, NDJSON streaming order, 4xx mapping,
metrics counters), graceful drain, the response bytes (each served
plan set is serialized once, and every body equals the per-response
``json.dumps`` encoding byte for byte), and unknown scenarios, which
get a 400 before admission and never reach a shard.
"""

from __future__ import annotations

import gc
import http.client
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import faults
from repro.api import OptimizerSession, PlanSetStore, WarmStartCache
from repro.core import (Budget, decode_plan_set, encode_plan_set,
                        guarantee_bound)
from repro.query import QueryGenerator
from repro.serve import (AdmissionController, GatewayClient,
                         GatewayConfig, ProtocolError, ServingGateway,
                         SignatureRouter, TokenBucket, launch,
                         parse_optimize_request, query_from_doc,
                         query_to_doc)
from repro.serve import gateway as gateway_module
from repro.service.registry import ScenarioRegistry, default_registry
from repro.service.signature import query_signature

GENEROUS = dict(tenant_rate=1000.0, tenant_burst=1000.0)


def make_query(seed: int = 0, num_tables: int = 3):
    return QueryGenerator(seed=seed).generate(num_tables, "chain", 1)


def request_body(query, **fields) -> bytes:
    doc = {"query": query_to_doc(query)}
    doc.update(fields)
    return json.dumps(doc).encode()


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------

class TestProtocol:
    def test_query_round_trip_preserves_signature(self):
        for seed in range(4):
            query = make_query(seed=seed, num_tables=4)
            wire = json.loads(json.dumps(query_to_doc(query)))
            rebuilt = query_from_doc(wire)
            assert query_signature(rebuilt) == query_signature(query)

    def test_round_trip_preserves_structure(self):
        query = make_query(seed=2)
        rebuilt = query_from_doc(query_to_doc(query))
        assert rebuilt.tables == query.tables
        assert rebuilt.join_predicates == query.join_predicates
        assert rebuilt.parametric_predicates == \
            query.parametric_predicates

    def test_parse_full_request(self):
        request = parse_optimize_request(request_body(
            make_query(), tenant="team-a", precision=0.2,
            budget={"seconds": 1.5, "lps": 100},
            deadline_seconds=2.0, stream=True))
        assert request.tenant == "team-a"
        assert request.precision == 0.2
        assert request.budget["lps"] == 100
        assert request.deadline_seconds == 2.0
        assert request.stream and request.anytime

    def test_defaults(self):
        request = parse_optimize_request(request_body(make_query()))
        assert request.tenant == "default"
        assert not request.stream and not request.anytime

    @pytest.mark.parametrize("body", [
        b"not json",
        b"[]",
        b'{"tenant": "t"}',
        b'{"query": 42}',
        b'{"query": {"tables": []}}',
        b'{"query": {"tables": [{"name": "t"}]}}',
    ])
    def test_malformed_bodies_raise(self, body):
        with pytest.raises(ProtocolError):
            parse_optimize_request(body)

    @pytest.mark.parametrize("fields", [
        {"tenant": ""},
        {"precision": -0.1},
        {"precision": "fast"},
        {"budget": {"parsecs": 12}},
        {"budget": {"seconds": -1}},
        {"budget": {"lps": "many"}},
        {"deadline_seconds": 0},
    ])
    def test_invalid_fields_raise(self, fields):
        with pytest.raises(ProtocolError):
            parse_optimize_request(request_body(make_query(), **fields))


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------

class TestAdmission:
    def test_token_bucket_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=3)
        assert [bucket.try_acquire(0.0) for _ in range(3)] == [0.0] * 3
        wait = bucket.try_acquire(0.0)
        assert wait == pytest.approx(0.1)
        # After the advertised wait a token is available again.
        assert bucket.try_acquire(wait) == 0.0

    def test_tenant_isolation(self):
        controller = AdmissionController(tenant_rate=1.0,
                                         tenant_burst=2,
                                         max_pending=100,
                                         clock=lambda: 0.0)
        assert controller.admit("a", now=0.0).admitted
        assert controller.admit("a", now=0.0).admitted
        blocked = controller.admit("a", now=0.0)
        assert blocked.decision == "rate" and blocked.retry_after > 0
        # Tenant b has its own bucket.
        assert controller.admit("b", now=0.0).admitted

    def test_capacity_bound_and_release(self):
        controller = AdmissionController(tenant_rate=1000.0,
                                         tenant_burst=1000,
                                         max_pending=2,
                                         clock=lambda: 0.0)
        assert controller.admit("a").admitted
        assert controller.admit("a").admitted
        shed = controller.admit("b")
        assert shed.decision == "capacity" and shed.retry_after > 0
        controller.release()
        assert controller.admit("b").admitted

    def test_draining_rejects_everything(self):
        controller = AdmissionController(tenant_rate=1000.0,
                                         tenant_burst=1000,
                                         max_pending=10)
        controller.draining = True
        assert controller.admit("a").decision == "draining"


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------

class TestRouter:
    def test_routing_is_deterministic_and_sticky(self):
        router = SignatureRouter(4)
        signatures = [query_signature(make_query(seed=s, num_tables=4))
                      for s in range(8)]
        first = [router.route(sig) for sig in signatures]
        second = [router.route(sig) for sig in signatures]
        assert first == second
        assert router.sticky_hits == len(signatures)
        assert sum(router.shard_hits) == 2 * len(signatures)
        assert router.distinct_signatures() == len(signatures)

    def test_single_shard(self):
        router = SignatureRouter(1)
        assert router.route("deadbeef00") == 0

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            SignatureRouter(0)


# ----------------------------------------------------------------------
# End-to-end gateway
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def gateway():
    """One 2-shard gateway shared by the end-to-end tests."""
    handle = launch(GatewayConfig(
        shards=2, tenant_rate=1000.0, tenant_burst=1000.0,
        max_pending=32))
    try:
        yield handle
    finally:
        handle.close()


@pytest.fixture(scope="module")
def client(gateway):
    return GatewayClient(gateway.host, gateway.port, timeout=120.0)


class TestGatewayEndToEnd:
    def test_health(self, client):
        doc = client.health()
        assert doc["status"] == "ok" and doc["shards"] == 2

    def test_served_plan_set_bit_identical_to_direct(self, client):
        query = make_query(seed=11)
        response = client.optimize(query, tenant="identity")
        assert response.status_code == 200
        assert response.doc["status"] in ("ok", "cached")
        with OptimizerSession("cloud") as session:
            direct = session.optimize(query)
        assert json.dumps(response.doc["plan_set"], sort_keys=True) == \
            json.dumps(encode_plan_set(direct.plan_set), sort_keys=True)
        # And the document decodes into a selectable plan set.
        stored = decode_plan_set(response.doc["plan_set"])
        plan, cost = stored.select([0.5], {"time": 1.0})
        assert cost["time"] > 0

    def test_repeat_signature_sticks_to_one_shard_and_caches(self,
                                                             client):
        query = make_query(seed=12)
        first = client.optimize(query, tenant="sticky")
        second = client.optimize(query, tenant="sticky")
        assert first.doc["status"] in ("ok", "cached")
        assert second.doc["status"] == "cached"
        assert second.doc["shard"] == first.doc["shard"]

    def test_deadline_expiry_returns_partial_with_guarantee(self,
                                                            client):
        query = make_query(seed=13, num_tables=5)
        response = client.optimize(query, tenant="deadline",
                                   budget={"lps": 150})
        assert response.status_code == 200
        doc = response.doc
        assert doc["status"] == "partial"
        assert doc["alpha"] > 0
        num_tables = len(query.tables)
        assert doc["guarantee"] == pytest.approx(
            guarantee_bound(doc["alpha"], num_tables))
        assert decode_plan_set(doc["plan_set"]).entries

    def test_stream_order_and_done_line(self, client):
        query = make_query(seed=14)
        lines = list(client.stream_optimize(query, tenant="stream"))
        kinds = [line["kind"] for line in lines]
        assert kinds[0] == "rung_started"
        assert kinds[-1] == "done"
        assert lines[-1]["status"] == "ok"
        rung_completions = [line for line in lines
                            if line["kind"] == "rung_completed"]
        assert rung_completions
        # Rungs tighten monotonically and each carries a plan set.
        alphas = [line["alpha"] for line in rung_completions]
        assert alphas == sorted(alphas, reverse=True)
        for line in rung_completions:
            assert decode_plan_set(line["plan_set"]).entries
        # Stream events interleave per rung: every completion's rung
        # index matches its preceding rung_started.
        assert lines[-1]["alpha"] == alphas[-1]

    def test_streamed_final_rung_matches_single_response(self, client):
        query = make_query(seed=15)
        lines = list(client.stream_optimize(query, tenant="stream"))
        final = [line for line in lines
                 if line["kind"] == "rung_completed"][-1]
        response = client.optimize(query, tenant="stream")
        assert response.doc["status"] == "cached"
        assert json.dumps(final["plan_set"], sort_keys=True) == \
            json.dumps(response.doc["plan_set"], sort_keys=True)

    def test_tenant_over_budget_gets_429_with_retry_after(self,
                                                          gateway):
        # Separate gateway config knobs would race the shared fixture's
        # generous buckets, so drive the admission path directly
        # through a tight per-tenant bucket on a second gateway.
        with launch(GatewayConfig(shards=1, tenant_rate=0.5,
                                  tenant_burst=2)) as strict:
            client = GatewayClient(strict.host, strict.port,
                                   timeout=120.0)
            query = make_query(seed=16)
            codes = [client.optimize(query, tenant="greedy").status_code
                     for _ in range(3)]
            assert codes[:2] == [200, 200]
            assert codes[2] == 429
            response = client.optimize(query, tenant="greedy")
            assert response.retry_after is not None
            assert response.retry_after > 0
            # An unrelated tenant is unaffected.
            assert client.optimize(query,
                                   tenant="patient").status_code == 200
            metrics = client.metrics()
            assert metrics["tenants"]["greedy"]["rejected_rate"] == 2
            assert metrics["tenants"]["patient"]["rejected_rate"] == 0

    @pytest.mark.parametrize("method,path,body,expected", [
        ("POST", "/v1/optimize", b"not json", 400),
        ("POST", "/v1/optimize", b'{"tenant": "x"}', 400),
        ("GET", "/v1/optimize", b"", 405),
        ("POST", "/metrics", b"", 405),
        ("GET", "/nope", b"", 404),
    ])
    def test_http_error_mapping(self, client, method, path, body,
                                expected):
        response = client._request(method, path, body or None)
        assert response.status_code == expected
        assert "error" in response.doc

    def test_malformed_counted_against_tenant(self, client):
        client._request("POST", "/v1/optimize",
                        b'{"tenant": "sloppy", "query": 42}')
        metrics = client.metrics()
        assert metrics["tenants"]["sloppy"]["malformed"] >= 1

    def test_metrics_shape(self, client):
        metrics = client.metrics()
        assert metrics["routing"]["num_shards"] == 2
        assert len(metrics["shards"]) == 2
        assert sum(metrics["routing"]["shard_hits"]) == \
            metrics["routing"]["requests"]
        totals = metrics["totals"]
        assert totals["completed"] <= totals["admitted"]
        assert metrics["latency"]["total"] >= totals["completed"]
        assert metrics["qps"] > 0


class TestCachedHitBytes:
    def test_two_parameter_hit_sends_the_canonical_encoding(self):
        """A warm hit answers from the cache's one decode of the stored
        document: same bytes as the first answer and as
        ``encode_plan_set(decode_plan_set(stored_doc))``, on the session
        and on the wire."""
        query = QueryGenerator(seed=71).generate(3, "chain", 2)
        with OptimizerSession("cloud", resolution=1) as session:
            first = session.optimize(query)
            second = session.optimize(query)
            stored_doc = session.cache.get(first.signature)
        assert (first.status, second.status) == ("ok", "cached")
        canonical = encode_plan_set(decode_plan_set(stored_doc))
        assert encode_plan_set(first.plan_set) == canonical
        assert encode_plan_set(second.plan_set) == canonical
        wire = json.dumps(canonical, sort_keys=True)
        with launch(GatewayConfig(shards=1, resolution=1,
                                  tenant_rate=1000.0,
                                  tenant_burst=1000.0)) as handle:
            client = GatewayClient(handle.host, handle.port, timeout=120.0)
            served = [client.optimize(query, deadline_seconds=120.0).doc
                      for _ in range(3)]
        assert [doc["status"] for doc in served] == ["ok", "cached",
                                                     "cached"]
        for doc in served:
            assert json.dumps(doc["plan_set"], sort_keys=True) == wire


# ----------------------------------------------------------------------
# Response bytes: one serialization per served plan set
# ----------------------------------------------------------------------

def raw_optimize(handle, query, **fields) -> tuple[int, bytes]:
    """POST one optimize request; return the raw status and body."""
    connection = http.client.HTTPConnection(handle.host, handle.port,
                                            timeout=120.0)
    try:
        connection.request("POST", "/v1/optimize",
                           body=request_body(query, **fields),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def per_response_body(doc: dict, plan_set) -> bytes:
    """The body of a plan-set response as ``json.dumps`` of the whole
    dict, with the plan set encoded for this one response: the fields
    and key order of ``_item_doc`` / ``_serve_degraded``, scalars read
    back from the response ``doc``."""
    payload = {key: doc[key] for key in (
        "status", "signature", "scenario", "shard", "alpha", "guarantee",
        "seconds")}
    payload["plan_set"] = encode_plan_set(plan_set)
    payload["plans"] = len(plan_set.entries)
    if "degraded_reason" in doc:
        payload["degraded_reason"] = doc["degraded_reason"]
    return json.dumps(payload).encode()


def wire_text(body: bytes) -> str:
    """The plan-set part of a response body, re-serialized."""
    return json.dumps(json.loads(body)["plan_set"])


@pytest.fixture
def no_ambient_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.reset()
    yield
    faults.reset()


class TestResponseBytes:
    def test_bodies_equal_the_per_response_encoding(self, tmp_path,
                                                    no_ambient_faults):
        query = make_query(seed=41)
        fresh = make_query(seed=42, num_tables=5)
        with OptimizerSession("cloud") as session:
            exact = session.optimize(query).plan_set
            partial = session.optimize(
                fresh, budget=Budget(lps=150)).plan_set
        with launch(GatewayConfig(shards=2,
                                  store_path=str(tmp_path / "plans.db"),
                                  **GENEROUS)) as handle:
            responses = [raw_optimize(handle, query),
                         raw_optimize(handle, query),
                         raw_optimize(handle, fresh, budget={"lps": 150})]
            # Both attempts die: the store answers "degraded".
            faults.install("serve.shard.die:1-2")
            responses.append(raw_optimize(handle, query))
        # The degraded path serves the stored document's decode.
        with PlanSetStore(str(tmp_path / "plans.db")) as store:
            stored = decode_plan_set(store.get(
                json.loads(responses[-1][1])["signature"]))
        expected = [("ok", exact), ("cached", exact),
                    ("partial", partial), ("degraded", stored)]
        for (code, body), (status, plan_set) in zip(responses, expected):
            doc = json.loads(body)
            assert (code, doc["status"]) == (200, status)
            assert body == per_response_body(doc, plan_set)

    def test_degraded_body_carries_the_ok_plan_set_bytes(
            self, tmp_path, no_ambient_faults):
        # The store keeps documents with sorted keys; the plan set it
        # serves on the degraded path must go out in the same bytes as
        # the one the optimizer's document gave.
        query = make_query(seed=41)
        with launch(GatewayConfig(shards=2,
                                  store_path=str(tmp_path / "plans.db"),
                                  **GENEROUS)) as handle:
            ok = raw_optimize(handle, query)
            faults.install("serve.shard.die:1-2")
            degraded = raw_optimize(handle, query)
        assert [json.loads(body)["status"] for _, body in (ok, degraded)] \
            == ["ok", "degraded"]
        assert wire_text(degraded[1]) == wire_text(ok[1])

    def test_hits_on_one_signature_encode_once(self, monkeypatch):
        calls = []
        real = gateway_module.encode_plan_set

        def counting(plan_set):
            calls.append(plan_set)
            return real(plan_set)

        monkeypatch.setattr(gateway_module, "encode_plan_set", counting)
        query = make_query(seed=43)
        with launch(GatewayConfig(shards=2, **GENEROUS)) as handle:
            first = raw_optimize(handle, query)
            hits = [raw_optimize(handle, query) for _ in range(10)]
            client = GatewayClient(handle.host, handle.port, timeout=120.0)
            encodes = client.metrics()["plan_set_encodes"]
        assert json.loads(first[1])["status"] == "ok"
        assert [json.loads(body)["status"] for _, body in hits] == \
            ["cached"] * 10
        assert len(calls) == 1 and encodes == 1
        assert len({body for _, body in hits}) == 1

    def test_tighter_put_serves_the_new_plan_set(self):
        # A budgeted request leaves a coarse entry; an exact run of the
        # same signature replaces it, and the next hit must send the
        # exact plan set's text, not the coarse one's.
        query = make_query(seed=13, num_tables=5)
        with OptimizerSession("cloud") as session:
            exact = session.optimize(query).plan_set
        with launch(GatewayConfig(shards=1, **GENEROUS)) as handle:
            coarse = raw_optimize(handle, query, budget={"lps": 150})
            tight = raw_optimize(handle, query, budget={"lps": 10 ** 9})
            hit = raw_optimize(handle, query, budget={"lps": 10 ** 9})
            client = GatewayClient(handle.host, handle.port, timeout=120.0)
            encodes = client.metrics()["plan_set_encodes"]
        statuses = [json.loads(body)["status"]
                    for _, body in (coarse, tight, hit)]
        assert statuses == ["partial", "ok", "cached"]
        assert hit[1] == per_response_body(json.loads(hit[1]), exact)
        assert wire_text(hit[1]) == wire_text(tight[1])
        assert wire_text(hit[1]) != wire_text(coarse[1])
        assert encodes == 2

    def test_evicted_entry_is_encoded_anew_and_texts_die_with_sets(self):
        # After an eviction the next hit loads the entry from the store
        # and decodes a new plan set: it must get that set's own text,
        # in the same byte form as the first set's.
        gateway = ServingGateway(GatewayConfig(shards=1))
        query, other = make_query(seed=44), make_query(seed=45)

        def body(item) -> bytes:
            response = ServingGateway._response_bytes(
                200, gateway._item_doc(item, 0))
            return response.split(b"\r\n\r\n", 1)[1]

        with PlanSetStore(":memory:") as store:
            session = OptimizerSession(
                "cloud", cache=WarmStartCache(maxsize=1, store=store))
            with session:
                first = session.optimize(query)
                bodies = [body(first), body(session.optimize(query))]
                session.optimize(other)  # evicts the first entry
                again = session.optimize(query)
                bodies += [body(again), body(session.optimize(query))]
        assert (first.status, again.status) == ("ok", "cached")
        assert again.plan_set is not first.plan_set
        assert gateway.counters.plan_set_encodes == 2
        plan_sets = [first.plan_set] * 2 + [again.plan_set] * 2
        assert bodies == [per_response_body(json.loads(b), plan_set)
                          for b, plan_set in zip(bodies, plan_sets)]
        assert wire_text(bodies[2]) == wire_text(bodies[1])
        assert len(gateway._wire_texts) == 2
        del first, again, plan_sets, session
        gc.collect()
        assert len(gateway._wire_texts) == 0

    def test_concurrent_hits_on_both_shards_are_identical(self):
        router = SignatureRouter(2)
        queries, seed = {}, 50
        while len(queries) < 2:
            query = make_query(seed=seed)
            queries.setdefault(router.shard_for(query_signature(query)),
                               query)
            seed += 1
        with launch(GatewayConfig(shards=2, **GENEROUS)) as handle:
            for query in queries.values():
                raw_optimize(handle, query)  # the miss
            jobs = [queries[i % 2] for i in range(24)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the threads finely
            try:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    responses = list(pool.map(
                        lambda query: raw_optimize(handle, query), jobs))
            finally:
                sys.setswitchinterval(interval)
            client = GatewayClient(handle.host, handle.port, timeout=120.0)
            encodes = client.metrics()["plan_set_encodes"]
        assert encodes == 2
        for shard, query in queries.items():
            bodies = {body for (_, body), job in zip(responses, jobs)
                      if job is query}
            assert len(bodies) == 1
            (body,) = bodies
            doc = json.loads(body)
            assert (doc["status"], doc["shard"]) == ("cached", shard)
            with OptimizerSession("cloud") as session:
                plan_set = session.optimize(query).plan_set
            assert body == per_response_body(doc, plan_set)


# ----------------------------------------------------------------------
# Unknown scenarios: a client error, not a shard failure
# ----------------------------------------------------------------------

class TestUnknownScenario:
    def test_unknown_scenario_is_a_400_and_spares_the_shard(
            self, no_ambient_faults):
        query = make_query(seed=44)
        with launch(GatewayConfig(shards=1, store_path=":memory:",
                                  **GENEROUS)) as handle:
            client = GatewayClient(handle.host, handle.port, timeout=120.0)
            assert client.optimize(query, tenant="typo").doc["status"] \
                == "ok"
            singles = [client.optimize(query, tenant="typo",
                                       scenario="nope")
                       for _ in range(3)]
            streams = [list(client.stream_optimize(query, tenant="typo",
                                                   scenario="nope"))
                       for _ in range(2)]
            warm = client.optimize(query, tenant="typo")
            metrics = client.metrics()
        error = "unknown scenario 'nope'; available: approx, cloud"
        assert [(r.status_code, r.doc["error"]) for r in singles] \
            == [(400, error)] * 3
        assert [[(line["kind"], line.get("http_status"), line["error"])
                 for line in lines] for lines in streams] \
            == [[("error", 400, error)]] * 2
        assert metrics["resilience"]["shard_respawns"] == 0
        assert metrics["resilience"]["breaker_opens"] == 0
        assert metrics["tenants"]["typo"]["malformed"] == 5
        assert metrics["tenants"]["typo"]["admitted"] == 2
        assert warm.status_code == 200
        assert warm.doc["status"] == "cached"

    def test_scenario_registered_after_start_is_served(self):
        registry = ScenarioRegistry()
        cloud = default_registry().get("cloud")
        registry.register("cloud", cloud.cost_model_factory, cloud.metrics)
        query = make_query(seed=45, num_tables=2)
        with launch(GatewayConfig(shards=1, **GENEROUS),
                    registry=registry) as handle:
            client = GatewayClient(handle.host, handle.port, timeout=120.0)
            before = client.optimize(query, scenario="late")
            registry.register("late", cloud.cost_model_factory,
                              cloud.metrics)
            after = client.optimize(query, scenario="late")
        assert before.status_code == 400
        assert after.status_code == 200
        assert after.doc["status"] == "ok"
        assert after.doc["scenario"] == "late"


class TestGracefulDrain:
    def test_drain_finishes_in_flight_then_rejects_new(self):
        with launch(GatewayConfig(shards=1, tenant_rate=1000.0,
                                  tenant_burst=1000.0)) as handle:
            client = GatewayClient(handle.host, handle.port,
                                   timeout=120.0)
            query = make_query(seed=17, num_tables=5)
            results = {}

            def run():
                results["inflight"] = client.optimize(query,
                                                      tenant="drainer")

            thread = threading.Thread(target=run)
            thread.start()
            # Wait until the request is admitted, then start draining.
            deadline = time.monotonic() + 30.0
            while handle.gateway.admission.pending == 0:
                if time.monotonic() > deadline:  # pragma: no cover
                    pytest.fail("request never admitted")
                time.sleep(0.005)
            drained = handle.drain(timeout=120.0)
            thread.join(timeout=120.0)
            assert drained
            # The in-flight request completed normally...
            assert results["inflight"].status_code == 200
            assert results["inflight"].doc["status"] in ("ok", "cached")
            # ...and new work is refused with 503.
            rejected = client.optimize(query, tenant="drainer")
            assert rejected.status_code == 503
            assert client.health()["status"] == "draining"
            metrics = client.metrics()
            assert metrics["tenants"]["drainer"]["rejected_draining"] \
                == 1
