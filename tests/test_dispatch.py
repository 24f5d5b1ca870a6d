"""Dispatch independence: the same plan sets and LP requests whichever
way a query reaches the optimizer.

The paper's metrics (the Pareto plan set, ``#solved LPs``) must not
depend on how the work was dispatched.  One matrix holds every path
against a session-free ``optimize_query`` of the same query:

* plan sets are equal on every path, compared as
  ``encode_plan_set`` of a decoded set (decoding re-normalizes rows, so
  the reference is decoded too);
* LP requests (``lps_solved + lp_cache_hits``) are equal wherever the
  counts are reported: they depend only on the optimizer's control flow;
* a pooled item runs on its own run's memo, so its solved/hit split
  equals the session-free run's, under ``fork`` and under ``spawn``.

Paths whose split a session memo legitimately moves (see
docs/counters.md, "LP substrate counters"): a serial session's ``map``
(its in-process runs share the session memo), the final rung of
``optimize_iter`` (the rung reads what the earlier rungs put in the
session memo) and a gateway shard (a serial session; its responses
carry no LP counts).
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.api import OptimizerSession, optimize_query
from repro.core import decode_plan_set, encode_plan_set, encode_result
from repro.lp import LPResultCache, install_shared_lp_cache
from repro.query import QueryGenerator
from repro.serve import GatewayClient, GatewayConfig, launch

#: ``(shape, parameters, seed)``: 3-table queries, one per shape and
#: parameter count, at resolution 1 (0.01-0.5 s each).
QUERIES = [("chain", 1, 0), ("star", 1, 0), ("chain", 2, 0), ("star", 2, 2)]
RESOLUTION = 1

#: Paths whose solved/hit split may differ from a session-free run's.
SPLIT_MOVED_BY_SESSION_MEMO = {"serial_map", "optimize_iter", "gateway"}


def queries():
    return [QueryGenerator(seed=seed).generate(3, shape, params)
            for shape, params, seed in QUERIES]


def canonical(plan_set) -> str:
    return json.dumps(encode_plan_set(plan_set), sort_keys=True)


def outcome(plan_set, solved=None, hits=None) -> dict:
    return {"plan_set": canonical(plan_set), "solved": solved, "hits": hits}


def reference() -> list[dict]:
    out = []
    for query in queries():
        result = optimize_query(query, "cloud", resolution=RESOLUTION)
        out.append(outcome(decode_plan_set(encode_result(result)),
                           result.stats.lps_solved,
                           result.stats.lp_stats.cache_hits))
    return out


def session_map(**session_args) -> list[dict]:
    with OptimizerSession("cloud", resolution=RESOLUTION, warm_start=False,
                          **session_args) as session:
        items = session.map(queries())
    assert [item.status for item in items] == ["ok"] * len(QUERIES)
    return [outcome(item.plan_set, item.stats["lps_solved"],
                    item.stats["lp_cache_hits"]) for item in items]


def pooled_map(method: str) -> list[dict]:
    """A pooled ``map`` from a thread whose installed LP memo already
    holds every LP of the queries: forked workers inherit it, and must
    still run each task on its own run's memo."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method!r} start method on this platform")
    memo = LPResultCache()
    previous = install_shared_lp_cache(memo)
    try:
        for query in queries():
            optimize_query(query, "cloud", resolution=RESOLUTION)
        assert len(memo) > 0
        return session_map(workers=2,
                           mp_context=multiprocessing.get_context(method))
    finally:
        install_shared_lp_cache(previous)


def final_rung() -> list[dict]:
    out = []
    with OptimizerSession("cloud", resolution=RESOLUTION,
                          warm_start=False) as session:
        for query in queries():
            rungs = [event for event in session.optimize_iter(
                query, precision_ladder=(0.5, 0.0))
                if event.kind == "rung_completed"]
            assert [event.alpha for event in rungs] == [0.5, 0.0]
            out.append(outcome(rungs[-1].plan_set))
    return out


def gateway_shard() -> list[dict]:
    out = []
    with launch(GatewayConfig(shards=1, resolution=RESOLUTION,
                              tenant_rate=1000.0,
                              tenant_burst=1000.0)) as handle:
        client = GatewayClient(handle.host, handle.port, timeout=120.0)
        for query in queries():
            response = client.optimize(query)
            assert response.status_code == 200
            assert response.doc["status"] == "ok"
            out.append({"plan_set": json.dumps(response.doc["plan_set"],
                                               sort_keys=True),
                        "solved": None, "hits": None})
    return out


PATHS = {
    "serial_map": lambda: session_map(workers=0),
    "pooled_fork": lambda: pooled_map("fork"),
    "pooled_spawn": lambda: pooled_map("spawn"),
    "optimize_iter": final_rung,
    "gateway": gateway_shard,
}


@pytest.fixture(scope="module")
def session_free():
    return reference()


@pytest.fixture(scope="module")
def dispatched():
    """Each path's outcomes, computed once per path."""
    cache: dict[str, list[dict]] = {}

    def run(path: str) -> list[dict]:
        if path not in cache:
            cache[path] = PATHS[path]()
        return cache[path]

    return run


@pytest.mark.parametrize("path", ["optimize_query", *PATHS])
def test_dispatch_independence(path, session_free, dispatched):
    got = session_free if path == "optimize_query" else dispatched(path)
    for (shape, params, seed), mine, ref in zip(QUERIES, got, session_free):
        label = f"{path} {shape} {params}p seed {seed}"
        assert mine["plan_set"] == ref["plan_set"], label
        if mine["solved"] is None:
            continue
        assert (mine["solved"] + mine["hits"]
                == ref["solved"] + ref["hits"]), label
        if path not in SPLIT_MOVED_BY_SESSION_MEMO:
            assert (mine["solved"], mine["hits"]) == (ref["solved"],
                                                      ref["hits"]), label


def test_serial_session_memo_moves_the_split(session_free, dispatched):
    """The named exception is real: later queries of a serial session
    hit LPs that earlier ones solved, so the session reads fewer solves
    than the session-free runs for the same requests."""
    serial = dispatched("serial_map")
    assert sum(item["solved"] for item in serial) < sum(
        item["solved"] for item in session_free)
