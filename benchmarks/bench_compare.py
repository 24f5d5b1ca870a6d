"""Perf-regression gate: compare benchmark artifacts against a baseline.

CI's bench-smoke job produces JSON artifacts (pytest-benchmark output for
the Figure 12 and ablation suites, the throughput harness's own report).
This tool distills them into a flat set of *tracked metrics* and either

* ``refresh`` — writes the metrics (with per-metric direction/tolerance/
  gating defaults) to a baseline file committed under
  ``benchmarks/baselines/``, or
* ``compare`` — reads the committed baseline and **fails (exit 1) when a
  gated metric regresses beyond its tolerance** (default 20%).

Gated metrics are deterministic optimizer counters (#solved LPs, #created
plans — the paper's own cost measures) plus the batched-vs-scalar kernel
LP ratio, all of which are machine-independent: the benchmark workloads
are derived from stable CRC32 seeds (see
:func:`repro.bench.workloads.queries_for_point`), so the same code
produces the same counters everywhere.  Wall-clock metrics (qps,
emptiness seconds) are recorded and reported but not gated by default —
shared CI runners make raw timings too noisy.

Refreshing the baseline after an intentional perf change — pass **all**
artifact families (compare iterates baseline keys only, so omitting a
family from the refresh silently removes its gates)::

    python -m pytest benchmarks/bench_fig12_chain.py \
        --benchmark-only --benchmark-json=bench-fig12-chain.json
    python -m pytest benchmarks/bench_ablation_refinements.py \
        --benchmark-only --benchmark-json=bench-ablation.json
    python benchmarks/bench_batch_throughput.py --tables 3 --queries 4 \
        --workers 1,2,4 --json bench-batch-throughput.json
    python benchmarks/bench_batch_throughput.py --topology star \
        --tables 3 --queries 4 --workers 1,2 \
        --json bench-topology-star.json
    python benchmarks/bench_anytime_ladder.py --scenario cloud \
        --json bench-anytime-cloud.json
    python benchmarks/bench_anytime_ladder.py --scenario approx \
        --json bench-anytime-approx.json
    python benchmarks/bench_serving.py --json bench-serving.json
    python benchmarks/bench_store.py --json bench-store.json
    python benchmarks/bench_compare.py refresh \
        --baseline benchmarks/baselines/bench-smoke.json \
        --fig12 bench-fig12-chain.json --ablation bench-ablation.json \
        --throughput bench-batch-throughput.json \
        bench-topology-star.json \
        --anytime bench-anytime-cloud.json bench-anytime-approx.json \
        --serving bench-serving.json \
        --store bench-store.json

The chaos gate keeps its own baseline (its counters come from the
fixed fault schedule, not the fault-free smoke run)::

    python benchmarks/bench_chaos.py --json bench-chaos.json
    python benchmarks/bench_compare.py refresh \
        --baseline benchmarks/baselines/bench-chaos.json \
        --chaos bench-chaos.json

PRs labeled ``perf-regression-ok`` skip the CI gate (see README).
"""

from __future__ import annotations

import argparse
import json
import sys

#: Default allowed relative regression before a gated metric fails.
DEFAULT_TOLERANCE = 0.2


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _fig12_metrics(path: str) -> dict[str, dict]:
    """Tracked metrics from a pytest-benchmark Figure 12 artifact.

    Points run under the default engine (``"options": "default"``)
    gate only their LP count, as ``lp.<shape>.t<n>p<p>.lps_solved``.
    """
    metrics: dict[str, dict] = {}
    for bench in _load(path).get("benchmarks", []):
        info = bench.get("extra_info", {})
        if "tables" not in info:
            continue
        point = (f"{info.get('shape', '?')}"
                 f".t{info['tables']}p{info.get('params', 1)}")
        if info.get("options") == "default":
            metrics[f"lp.{point}.lps_solved"] = {
                "value": info["lps_solved"], "direction": "lower",
                "tolerance": DEFAULT_TOLERANCE, "gate": True}
            continue
        tag = f"fig12.{point}"
        metrics[f"{tag}.lps_solved"] = {
            "value": info["lps_solved"], "direction": "lower",
            "tolerance": DEFAULT_TOLERANCE, "gate": True}
        metrics[f"{tag}.plans_created"] = {
            "value": info["plans_created"], "direction": "lower",
            "tolerance": DEFAULT_TOLERANCE, "gate": True}
        metrics[f"{tag}.seconds"] = {
            "value": bench["stats"]["mean"], "direction": "lower",
            "tolerance": DEFAULT_TOLERANCE, "gate": False}
    return metrics


def _ablation_metrics(path: str) -> dict[str, dict]:
    """Tracked metrics from the refinement/kernel ablation artifact.

    Besides the per-config LP counters this derives the batched/scalar
    kernel ratios — the quantities that erode when the vectorized
    kernels silently stop being used.
    """
    metrics: dict[str, dict] = {}
    by_config: dict[str, dict] = {}
    for bench in _load(path).get("benchmarks", []):
        info = bench.get("extra_info", {})
        config = info.get("config")
        if not config:
            continue
        by_config[config] = {"lps_solved": info.get("lps_solved"),
                             "emptiness_lp_seconds":
                                 info.get("emptiness_lp_seconds"),
                             "seconds": bench["stats"]["mean"]}
        metrics[f"ablation.{config}.lps_solved"] = {
            "value": info["lps_solved"], "direction": "lower",
            "tolerance": DEFAULT_TOLERANCE, "gate": True}
        if info.get("emptiness_lp_seconds") is not None:
            metrics[f"ablation.{config}.emptiness_lp_seconds"] = {
                "value": info["emptiness_lp_seconds"],
                "direction": "lower",
                "tolerance": DEFAULT_TOLERANCE, "gate": False}
    batched = by_config.get("kernels_batched_kernels")
    scalar = by_config.get("kernels_scalar_kernels")
    if batched and scalar and scalar["lps_solved"]:
        # Deterministic: the fraction of the scalar path's LPs the
        # batched kernels actually solve.  Tighter tolerance — a full
        # fallback to the scalar loops moves it by well under 20%.
        metrics["ablation.kernels.lp_ratio"] = {
            "value": batched["lps_solved"] / scalar["lps_solved"],
            "direction": "lower", "tolerance": 0.08, "gate": True}
        if scalar["emptiness_lp_seconds"]:
            metrics["ablation.kernels.emptiness_seconds_ratio"] = {
                "value": (batched["emptiness_lp_seconds"]
                          / scalar["emptiness_lp_seconds"]),
                "direction": "lower",
                "tolerance": DEFAULT_TOLERANCE, "gate": False}
    return metrics


def _anytime_metrics(path: str) -> dict[str, dict]:
    """Tracked metrics from a time-to-first-guarantee ladder report.

    Per-rung cumulative LP counters and the direct-exact LP total are
    deterministic (stable CRC-seeded workloads) and gated; wall-clock
    derived values (time-to-first-guarantee, ladder overhead) are
    informational.
    """
    metrics: dict[str, dict] = {}
    report = _load(path)
    tag = (f"anytime.{report.get('scenario', '?')}"
           f".{report.get('shape', '?')}.t{report.get('num_tables', '?')}")
    for rung in report.get("rungs", []):
        rung_tag = f"{tag}.rung{rung['rung']}_a{rung['alpha']:g}"
        metrics[f"{rung_tag}.lps_solved"] = {
            "value": rung["lps_solved"], "direction": "lower",
            "tolerance": DEFAULT_TOLERANCE, "gate": True}
        metrics[f"{rung_tag}.seconds"] = {
            "value": rung["seconds"], "direction": "lower",
            "tolerance": DEFAULT_TOLERANCE, "gate": False}
    if report.get("direct_lps"):
        metrics[f"{tag}.direct_lps"] = {
            "value": report["direct_lps"], "direction": "lower",
            "tolerance": DEFAULT_TOLERANCE, "gate": True}
        # Deterministic warm-start check: the whole ladder's LPs as a
        # multiple of the direct exact run's.  Erodes when cross-rung
        # warm-starting (cost memo + LP memo) silently stops working.
        metrics[f"{tag}.ladder_lp_ratio"] = {
            "value": report["ladder_lps"] / report["direct_lps"],
            "direction": "lower", "tolerance": DEFAULT_TOLERANCE,
            "gate": True}
    metrics[f"{tag}.first_guarantee_seconds"] = {
        "value": report.get("first_guarantee_seconds", 0.0),
        "direction": "lower", "tolerance": DEFAULT_TOLERANCE,
        "gate": False}
    return metrics


def _serving_metrics(path: str) -> dict[str, dict]:
    """Tracked metrics from the serving-gateway benchmark JSON.

    The gateway's serving counters are deterministic under the bench's
    seeded open-loop workload (CRC-seeded query mix, seeded Poisson
    arrivals and tenant choice, LP-count deadline budgets), so
    admission outcomes, completion counts, deadline partials and the
    signature-routing distribution are gated: any drift means the
    admission, routing or anytime-serving logic changed behavior.
    ``dropped`` (non-429 failures) gates at an expected baseline of 0 —
    a single dropped request fails the compare outright.  Timing
    metrics (qps, client-side latency percentiles) are informational.
    """
    report = _load(path)
    tag = (f"serving.{report.get('shape', '?')}"
           f".t{report.get('num_tables', '?')}"
           f".s{report.get('shards', '?')}")
    totals = report["counters"]["totals"]
    routing = report["counters"]["routing"]
    metrics: dict[str, dict] = {}
    for name in ("admitted", "completed", "deadline_partials",
                 "streams", "events_streamed"):
        metrics[f"{tag}.{name}"] = {
            "value": totals[name], "direction": "higher",
            "tolerance": DEFAULT_TOLERANCE, "gate": True}
    for name in ("rejected_rate", "rejected_capacity", "errors"):
        metrics[f"{tag}.{name}"] = {
            "value": totals[name], "direction": "lower",
            "tolerance": DEFAULT_TOLERANCE, "gate": True}
    metrics[f"{tag}.dropped"] = {
        "value": report.get("dropped", 0), "direction": "lower",
        "tolerance": DEFAULT_TOLERANCE, "gate": True}
    metrics[f"{tag}.sticky_hits"] = {
        "value": routing["sticky_hits"], "direction": "higher",
        "tolerance": DEFAULT_TOLERANCE, "gate": True}
    metrics[f"{tag}.distinct_signatures"] = {
        "value": routing["distinct_signatures"], "direction": "lower",
        "tolerance": DEFAULT_TOLERANCE, "gate": True}
    for index, hits in enumerate(routing["shard_hits"]):
        metrics[f"{tag}.shard{index}_hits"] = {
            "value": hits, "direction": "higher",
            "tolerance": DEFAULT_TOLERANCE, "gate": True}
    metrics[f"{tag}.qps"] = {
        "value": report["qps"], "direction": "higher",
        "tolerance": DEFAULT_TOLERANCE, "gate": False}
    for p in ("p50", "p95", "p99"):
        metrics[f"{tag}.latency_{p}_ms"] = {
            "value": report["latency_ms"][p], "direction": "lower",
            "tolerance": DEFAULT_TOLERANCE, "gate": False}
    return metrics


def _store_metrics(path: str) -> dict[str, dict]:
    """Tracked metrics from the plan-set store benchmark JSON.

    The store bench replays recurring query families with drifting
    statistics (CRC-seeded, so every counter is deterministic).  Absolute
    floors ride on top of the usual relative gates: besides the relative
    check, the compare fails whenever the current value sinks below the
    floor, however the baseline moves:

    * ``store.hit_rate`` (floor 1.0) — a repeated identical query must
      *always* be an exact store hit; any miss means the persistent
      tier stopped answering;
    * ``store.lp_speedup`` (floor 2.0) — the headline warm-start claim:
      seeded runs reach their first ``alpha <= 0.05`` guarantee in at
      most half the cold run's LPs, as the geometric mean of the
      per-family speedups (the arithmetic sum ratio is tracked
      separately as ``store.lp_speedup_sum``); each family also floors
      at 1.0 — warm-starting must never make a family *slower*;
    * ``store.all_identical`` (floor 1.0) — every seeded run's final
      exact plan set is bit-identical to a cold run's; 0.0 the moment
      seeding contaminates an exact result.
    """
    report = _load(path)
    metrics: dict[str, dict] = {}
    for row in report.get("families", []):
        tag = (f"store.{row['scenario']}.{row['shape']}"
               f".t{row['num_tables']}")
        metrics[f"{tag}.cold_first_lps"] = {
            "value": row["cold_first_lps"], "direction": "lower",
            "tolerance": DEFAULT_TOLERANCE, "gate": True}
        metrics[f"{tag}.warm_first_lps"] = {
            "value": row["warm_first_lps"], "direction": "lower",
            "tolerance": DEFAULT_TOLERANCE, "gate": True}
        metrics[f"{tag}.lp_speedup"] = {
            "value": row["lp_speedup"], "direction": "higher",
            "tolerance": DEFAULT_TOLERANCE, "gate": True, "floor": 1.0}
        for name in ("cold_first_seconds", "warm_first_seconds"):
            metrics[f"{tag}.{name}"] = {
                "value": row[name], "direction": "lower",
                "tolerance": DEFAULT_TOLERANCE, "gate": False}
    metrics["store.hit_rate"] = {
        "value": report["hit_rate"], "direction": "higher",
        "tolerance": DEFAULT_TOLERANCE, "gate": True, "floor": 1.0}
    metrics["store.seed_hit_rate"] = {
        "value": report["seed_hit_rate"], "direction": "higher",
        "tolerance": DEFAULT_TOLERANCE, "gate": True, "floor": 1.0}
    metrics["store.lp_speedup"] = {
        "value": report["lp_speedup"], "direction": "higher",
        "tolerance": DEFAULT_TOLERANCE, "gate": True, "floor": 2.0}
    metrics["store.lp_speedup_sum"] = {
        "value": report["lp_speedup_sum"], "direction": "higher",
        "tolerance": DEFAULT_TOLERANCE, "gate": True, "floor": 1.5}
    metrics["store.all_identical"] = {
        "value": 1.0 if report["all_identical"] else 0.0,
        "direction": "higher", "tolerance": 0.0, "gate": True,
        "floor": 1.0}
    return metrics


def _chaos_metrics(path: str) -> dict[str, dict]:
    """Tracked metrics from the chaos benchmark JSON.

    Everything here is deterministic by construction — the fault
    schedules are hit-count windows over CRC-seeded queries — and the
    gates encode the robustness contract of ``docs/robustness.md``:

    * ``chaos.http_200_rate`` (floor 1.0) — every request in every
      chaos phase completes with HTTP 200 (full, degraded or partial;
      never a dropped connection or unhandled 500);
    * ``chaos.retry_identical`` (floor 1.0, zero tolerance) — every
      recovered response is bit-identical to its fault-free reference;
    * ``chaos.dropped`` — gated at its expected baseline of 0;
    * ``chaos.faults_injected`` and the recovery counters (respawns,
      breaker opens, degraded responses, absorbed write faults, pool
      respawns, stream interrupts) floor at 1 — a chaos run that
      injects nothing, or whose recovery paths stop being exercised,
      fails instead of silently passing.
    """
    report = _load(path)
    resilience = report["resilience"]
    metrics: dict[str, dict] = {}
    metrics["chaos.http_200_rate"] = {
        "value": report["http_200_rate"], "direction": "higher",
        "tolerance": 0.0, "gate": True, "floor": 1.0}
    metrics["chaos.retry_identical"] = {
        "value": report["retry_identical"], "direction": "higher",
        "tolerance": 0.0, "gate": True, "floor": 1.0}
    metrics["chaos.dropped"] = {
        "value": report["dropped"], "direction": "lower",
        "tolerance": 0.0, "gate": True}
    for name in ("requests_total", "identity_checks",
                 "faults_injected"):
        metrics[f"chaos.{name}"] = {
            "value": report[name], "direction": "higher",
            "tolerance": DEFAULT_TOLERANCE, "gate": True, "floor": 1.0}
    for name in ("shard_respawns", "breaker_opens",
                 "degraded_responses"):
        metrics[f"chaos.{name}"] = {
            "value": resilience[name], "direction": "higher",
            "tolerance": DEFAULT_TOLERANCE, "gate": True, "floor": 1.0}
    for name in ("write_faults_absorbed", "pool_respawns",
                 "stream_interrupts"):
        metrics[f"chaos.{name}"] = {
            "value": report[name], "direction": "higher",
            "tolerance": DEFAULT_TOLERANCE, "gate": True, "floor": 1.0}
    return metrics


def _throughput_metrics(path: str) -> dict[str, dict]:
    """Tracked metrics from the throughput harness JSON (informational:
    queries/second on shared runners is too noisy to gate)."""
    metrics: dict[str, dict] = {}
    report = _load(path)
    topology = report.get("topology", report.get("shape", "?"))
    for point in report.get("throughput", []):
        tag = (f"throughput.{point.get('scenario', '?')}.{topology}"
               f".t{point['num_tables']}.w{point['workers']}")
        metrics[f"{tag}.qps"] = {
            "value": point["qps"], "direction": "higher",
            "tolerance": DEFAULT_TOLERANCE, "gate": False}
    for point in report.get("streaming", []):
        tag = (f"streaming.{point.get('scenario', '?')}.{topology}"
               f".t{point['num_tables']}.w{point['workers']}")
        metrics[f"{tag}.qps"] = {
            "value": point["qps"], "direction": "higher",
            "tolerance": DEFAULT_TOLERANCE, "gate": False}
    return metrics


def collect_metrics(args) -> dict[str, dict]:
    """Extract all tracked metrics from the provided artifacts."""
    metrics: dict[str, dict] = {}
    if args.fig12:
        metrics.update(_fig12_metrics(args.fig12))
    if args.ablation:
        metrics.update(_ablation_metrics(args.ablation))
    for path in args.throughput or ():
        metrics.update(_throughput_metrics(path))
    for path in args.anytime or ():
        metrics.update(_anytime_metrics(path))
    if args.serving:
        metrics.update(_serving_metrics(args.serving))
    if args.store:
        metrics.update(_store_metrics(args.store))
    if args.chaos:
        metrics.update(_chaos_metrics(args.chaos))
    if not metrics:
        raise SystemExit("no tracked metrics found in the given artifacts")
    return metrics


def _regression(baseline: dict, current: float) -> float:
    """Relative movement of ``current`` in the *bad* direction (>= 0)."""
    value = baseline["value"]
    if value == 0:
        return 0.0 if current == 0 else float("inf")
    delta = ((current - value) if baseline["direction"] == "lower"
             else (value - current))
    return max(0.0, delta / abs(value))


def run_compare(args) -> int:
    baseline_doc = _load(args.baseline)
    baseline = baseline_doc.get("metrics", {})
    current = collect_metrics(args)
    failures = []
    rows = []
    for name in sorted(baseline):
        spec = baseline[name]
        if name not in current:
            # A gated metric that stops being produced would otherwise
            # silently defeat the gate (e.g. a renamed config tag).
            if spec.get("gate", False):
                failures.append((name, spec["value"], float("nan"),
                                 float("inf")))
                rows.append((name, spec["value"], None, "MISSING (gated)"))
            else:
                rows.append((name, spec["value"], None, "missing"))
            continue
        now = current[name]["value"]
        regression = _regression(spec, now)
        gated = spec.get("gate", False)
        tolerance = spec.get("tolerance", DEFAULT_TOLERANCE)
        floor = spec.get("floor")
        status = "ok"
        if regression > tolerance:
            status = "REGRESSED" if gated else "regressed (ungated)"
            if gated:
                failures.append((name, spec["value"], now, regression))
        if floor is not None and now < floor:
            # Absolute minimum, independent of the baseline value: even
            # a within-tolerance drift must not sink below the floor.
            status = f"BELOW FLOOR {floor:g}"
            if gated and not any(f[0] == name for f in failures):
                failures.append((name, spec["value"], now, regression))
        rows.append((name, spec["value"], now, status))
    width = max(len(name) for name, *_ in rows)
    print(f"{'metric':{width}}  {'baseline':>12}  {'current':>12}  status")
    for name, base_value, now, status in rows:
        now_text = "-" if now is None else f"{now:12.4g}"
        print(f"{name:{width}}  {base_value:12.4g}  {now_text:>12}  "
              f"{status}")
    if failures:
        print(f"\n{len(failures)} gated metric(s) regressed beyond "
              f"tolerance:", file=sys.stderr)
        for name, base_value, now, regression in failures:
            floor = baseline.get(name, {}).get("floor")
            if now != now:  # NaN marks a gated metric gone missing
                print(f"  {name}: {base_value:.4g} -> missing from the "
                      f"current artifacts", file=sys.stderr)
            elif floor is not None and now < floor:
                print(f"  {name}: {now:.4g} below the absolute floor "
                      f"{floor:g} (baseline {base_value:.4g})",
                      file=sys.stderr)
            else:
                print(f"  {name}: {base_value:.4g} -> {now:.4g} "
                      f"(+{regression:.0%})", file=sys.stderr)
        print("If intentional, refresh the baseline (see module "
              "docstring) or label the PR 'perf-regression-ok'.",
              file=sys.stderr)
        return 0 if args.allow_regression else 1
    print("\nall gated metrics within tolerance")
    return 0


def run_refresh(args) -> int:
    doc = {
        "generated_by": "benchmarks/bench_compare.py refresh",
        "metrics": collect_metrics(args),
    }
    with open(args.baseline, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(doc['metrics'])} tracked metrics to "
          f"{args.baseline}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("command", choices=("compare", "refresh"))
    parser.add_argument("--baseline", required=True,
                        help="baseline JSON path (read by compare, "
                             "written by refresh)")
    parser.add_argument("--fig12", default=None,
                        help="pytest-benchmark JSON of the Figure 12 "
                             "suite")
    parser.add_argument("--ablation", default=None,
                        help="pytest-benchmark JSON of the ablation "
                             "suite")
    parser.add_argument("--throughput", nargs="*", default=(),
                        help="throughput harness JSON report(s)")
    parser.add_argument("--anytime", nargs="*", default=(),
                        help="anytime-ladder (time-to-first-guarantee) "
                             "JSON report(s)")
    parser.add_argument("--serving", default=None,
                        help="serving-gateway benchmark JSON "
                             "(bench_serving.py --json)")
    parser.add_argument("--store", default=None,
                        help="plan-set store benchmark JSON "
                             "(bench_store.py --json)")
    parser.add_argument("--chaos", default=None,
                        help="chaos benchmark JSON "
                             "(bench_chaos.py --json)")
    parser.add_argument("--allow-regression", action="store_true",
                        help="report regressions but exit 0 (local "
                             "experimentation)")
    args = parser.parse_args()
    if args.command == "refresh":
        return run_refresh(args)
    return run_compare(args)


if __name__ == "__main__":
    raise SystemExit(main())
