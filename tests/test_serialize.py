"""Tests for Pareto-plan-set serialization (the embedded-SQL artifact)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import optimize_query
from repro.core import (PlanSelector, decode_plan_set, encode_plan_set,
                        encode_result)
from repro.core.serialize import SerializationError
from repro.query import QueryGenerator


@pytest.fixture(scope="module")
def result():
    query = QueryGenerator(seed=71).generate(3, "chain", 1)
    return optimize_query(query, "cloud", resolution=2)


@pytest.fixture(scope="module")
def stored(result):
    return decode_plan_set(encode_result(result))


class TestRoundTrip:
    def test_entry_count_preserved(self, result, stored):
        assert len(stored.entries) == len(result.entries)

    def test_plans_structurally_identical(self, result, stored):
        original = {e.plan.signature() for e in result.entries}
        reloaded = {e.plan.signature() for e in stored.entries}
        assert original == reloaded

    def test_cost_functions_evaluate_identically(self, result, stored):
        by_sig = {e.plan.signature(): e for e in result.entries}
        for entry in stored.entries:
            source = by_sig[entry.plan.signature()]
            for x in np.linspace(0, 1, 9):
                a = source.cost.evaluate([x])
                b = entry.cost.evaluate([x])
                for metric in a:
                    assert a[metric] == pytest.approx(b[metric],
                                                      rel=1e-12)

    def test_relevance_regions_match(self, result, stored):
        by_sig = {e.plan.signature(): e for e in result.entries}
        for entry in stored.entries:
            source = by_sig[entry.plan.signature()]
            for x in np.linspace(0.01, 0.99, 21):
                assert entry.relevant_at([x]) == \
                    source.region.contains_point([x])

    def test_file_round_trip(self, result, tmp_path):
        path = tmp_path / "pps.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(encode_result(result), handle)
        # The file is plain JSON.
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["version"] == 1
        loaded = decode_plan_set(doc)
        assert len(loaded.entries) == len(result.entries)


    def test_one_parameter_round_trip_is_exact(self, result, stored):
        # 1-parameter rows are +-1, whose norm is exactly 1.
        assert encode_plan_set(stored) == encode_result(result)

    def test_one_byte_form_whatever_the_key_order(self, result):
        # A store keeps its documents with sorted keys: re-encoding its
        # copy gives the bytes the optimizer's document gives.
        doc = encode_result(result)
        sorted_copy = json.loads(json.dumps(doc, sort_keys=True))
        texts = {json.dumps(encode_plan_set(decode_plan_set(d)))
                 for d in (doc, sorted_copy)}
        assert texts == {json.dumps(doc)}


class TestKnownDefects:
    @pytest.mark.xfail(
        strict=True,
        reason="decode re-normalizes polytope rows, and a row whose norm "
               "is not exactly 1.0 moves in its last bit, so "
               "encode_plan_set is not an exact inverse of "
               "decode_plan_set; an idempotent decode would move the "
               "canonical plan-set digests")
    def test_two_parameter_round_trip_is_exact(self):
        query = QueryGenerator(seed=71).generate(3, "chain", 2)
        doc = encode_result(optimize_query(query, "cloud", resolution=1))
        assert encode_plan_set(decode_plan_set(doc)) == doc


class TestStoredSelection:
    def test_selection_matches_live_selector(self, result, stored):
        live = PlanSelector(result)
        for x in ([0.2], [0.5], [0.8]):
            for weights in ({"time": 1.0}, {"fees": 1.0},
                            {"time": 1.0, "fees": 0.5}):
                live_pick = live.by_weighted_sum(x, weights)
                stored_plan, stored_cost = stored.select(x, weights)
                live_score = sum(weights.get(m, 0) * v
                                 for m, v in live_pick.cost.items())
                stored_score = sum(weights.get(m, 0) * v
                                   for m, v in stored_cost.items())
                assert stored_score == pytest.approx(live_score,
                                                     rel=1e-9)

    def test_frontier_sizes_match(self, result, stored):
        for x in ([0.3], [0.7]):
            assert len(stored.frontier(x)) == len(result.frontier_at(x))


class TestErrors:
    def test_version_mismatch(self):
        with pytest.raises(SerializationError):
            decode_plan_set({"version": 99, "entries": []})

    def test_unknown_plan_kind(self):
        doc = {"version": 1, "num_params": 1,
               "entries": [{"plan": {"kind": "cte"}, "cost": {},
                            "region": {"space": {"dim": 1,
                                                 "constraints": []},
                                       "cutouts": []}}]}
        with pytest.raises((SerializationError, ValueError, KeyError)):
            decode_plan_set(doc)
