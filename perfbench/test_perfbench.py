"""Tests of the benchmark itself (not of the optimizer).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder, SpanTable  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")


def synthetic_table() -> SpanTable:
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9];  lone [20, 22]
    names = ["core.optimize.1p", "lp.solve", "geometry.polytope"]
    return SpanTable(
        names,
        name=[0, 2, 1, 1, 0],
        parent=[-1, 0, 1, 0, -1],
        start=[0.0, 1.0, 2.0, 5.0, 20.0],
        end=[10.0, 4.0, 3.0, 9.0, 22.0],
        thread=[1, 1, 1, 1, 1])


def test_self_time_subtracts_direct_children_only():
    table = synthetic_table()
    assert table.self_time().tolist() == [3.0, 2.0, 1.0, 4.0, 2.0]
    assert table.root().tolist() == [0, 0, 0, 0, 4]


def test_layer_self_times_add_up_to_root_wall():
    table = synthetic_table()
    roots = table.mask("core.optimize.1p") & (table.parent < 0)
    metrics = layers.optimizer_metrics(table, roots, operations=2)
    layered = (metrics["core.self_s"] + metrics["lp.self_s"]
               + metrics["geometry.polytope.self_s"]) * 2
    assert layered == pytest.approx(12.0)
    assert metrics["lp.share"] == pytest.approx(5.0 / 12.0)
    assert metrics["geometry.polytope.builds"] == 0.5


def test_recorder_links_spans_within_each_thread():
    recorder = SpanRecorder()
    inner = recorder.wrap("lp.solve", lambda: None)
    outer = recorder.wrap("cost.dominance", lambda: inner())

    def work():
        with recorder.span("core.optimize"):
            outer()
            inner()

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    work()
    table = recorder.table()
    assert len(table) == 8
    for tid in set(table.thread.tolist()):
        rows = np.flatnonzero(table.thread == tid)
        names = [table.names[table.name[i]] for i in rows]
        parents = [int(table.parent[i]) for i in rows]
        base = int(rows[0])
        assert names == ["core.optimize", "cost.dominance", "lp.solve",
                         "lp.solve"]
        assert parents == [-1, base, base + 1, base]
    assert (table.self_time() >= -1e-9).all()
    roots = table.parent < 0
    assert table.self_time().sum() == pytest.approx(
        table.duration[roots].sum())


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError):
        measure.percentile(range(99), 90.0)
    assert measure.percentile(range(100), 90.0) == pytest.approx(89.1)
    assert measure.percentile(range(5), 50.0) == 2.0
    with pytest.raises(ValueError):
        measure.percentile([], 50.0)


def test_tail_picks_the_highest_percentile_with_ten_beyond():
    assert measure.tail(list(range(125)), 125)[0] == 90.0
    assert measure.tail(list(range(40)), 40)[0] == 75.0
    assert measure.tail(list(range(12)), 12)[0] == 50.0
    # A run that finished more than planned keeps the planned percentile.
    assert measure.tail(list(range(40)), 16) == (50.0, 19.5)


def test_benchmark_json_metric_names_and_units():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"]
                                            for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert all(UNIT.fullmatch(m["unit"]) and len(m["unit"]) <= 16
               for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in spec["end_to_end"])} \
        in spec["end_to_end"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_every_pool_entry_has_a_committed_digest():
    expected = inputs.load_expected()["entries"]
    pools = (inputs.exact_pool_ids() + inputs.serve_base_ids()
             + inputs.serve_drift_ids() + inputs.serve_fresh_ids())
    assert set(pools) == set(expected)


def test_inputs_are_identical_for_a_seed_and_vary_across_seeds():
    from repro.api import query_signature

    expected = inputs.load_expected()["entries"]
    first = inputs.exact_inputs(7, expected)
    assert first == inputs.exact_inputs(7, expected)
    assert first != inputs.exact_inputs(8, expected)
    assert len(set(first)) == len(first)
    assert [inputs.entry_params(e) for e in first].count(2) == 3
    assert len(first) == 11
    assert (query_signature(inputs.exact_query(first[0]))
            == query_signature(inputs.exact_query(first[0])))
    schedule = inputs.serve_schedule(7, expected)
    assert schedule == inputs.serve_schedule(7, expected)
    assert schedule != inputs.serve_schedule(8, expected)
    drift_id = inputs.serve_drift_ids()[4]
    assert (query_signature(inputs.serve_query(drift_id))
            == query_signature(inputs.serve_query(drift_id)))


def test_serve_schedule_mix_and_rate():
    expected = inputs.load_expected()["entries"]
    schedule = inputs.serve_schedule(3, expected)
    kinds = [r.kind for r in schedule]
    assert len(schedule) == inputs.SERVE_REQUESTS
    assert measure.samples_beyond(len(schedule), 90.0) >= measure.MIN_BEYOND
    bases = inputs.serve_base_ids()
    assert kinds.count("fresh") == inputs.SERVE_FRESH
    assert kinds.count("drift") == inputs.SERVE_DRIFTS_PER_BASE * len(bases)
    assert kinds.count("hit") == 80
    for base in bases:
        assert sum(r.entry.startswith(f"drift:{base}:")
                   for r in schedule) == inputs.SERVE_DRIFTS_PER_BASE
    misses = [r.entry for r in schedule if r.kind != "hit"]
    assert len(set(misses)) == len(misses)
    span = inputs.SERVE_REQUESTS / inputs.SERVE_RATE
    assert all(0.0 <= r.at < span for r in schedule)
    assert [r.at for r in schedule] == sorted(r.at for r in schedule)
    assert inputs.serve_replays(45) == 3
    assert inputs.serve_replays(1) == 1


def test_a_perturbed_plan_set_counts_as_failed():
    from repro.api import optimize_query
    from repro.core.serialize import encode_result

    expected = inputs.load_expected()["entries"]
    entry = min(inputs.serve_fresh_ids(), key=lambda e: expected[e]["work"])
    result = optimize_query(inputs.serve_query(entry), "cloud",
                            resolution=2)
    doc = encode_result(result)
    digest = expected[entry]["digest"]
    assert measure.exact_answer_ok(0.0, doc, digest)
    assert not measure.exact_answer_ok(0.05, doc, digest)
    perturbed = json.loads(json.dumps(doc))
    piece = perturbed["entries"][0]["cost"]["time"]["pieces"][0]
    piece["b"] *= 1.0 + 1e-12
    assert not measure.exact_answer_ok(0.0, perturbed, digest)

    summary = {"status": "ok", "alpha": 0.0,
               "digest": measure.canonical_digest(doc)}
    assert measure.response_ok(200, summary, digest)
    assert not measure.response_ok(429, summary, digest)
    assert not measure.response_ok(200, {**summary, "status": "partial"},
                                   digest)
    assert not measure.response_ok(200, {**summary, "digest": "0" * 64},
                                   digest)


def test_refuses_to_run_with_repro_knobs(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_DEFERRED_LP", "0")
    assert run.main(["--workload", "exact", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
