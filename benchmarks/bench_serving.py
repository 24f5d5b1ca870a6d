"""Open-loop serving benchmark for the ``repro.serve`` gateway.

Boots an in-process sharded gateway and drives it the way a latency
benchmark should be driven: **open loop** — request arrival times come
from a seeded Poisson process and do not wait for earlier responses, so
queueing delay is measured instead of hidden (a closed loop would slow
its own arrival rate exactly when the server struggles, the classic
coordinated-omission trap).

The workload is deterministic end to end:

* the query mix comes from the CRC-seeded workload generator
  (:func:`repro.bench.workloads.queries_for_point`), so every machine
  optimizes the same queries;
* arrival times, query choice and tenant choice are drawn from one
  seeded ``random.Random``;
* a warmup pass optimizes the mix once, so the measured phase exercises
  the steady-state serving regime (warm-start hits + signature-sticky
  routing) rather than first-contact optimization.

Four phases, all counted by the gateway's deterministic serving
counters (admitted / completed / deadline-partials / sticky hits /
shard hit distribution — gated by ``bench_compare.py --serving``):

1. warmup — each mix query once, exact;
2. open-loop main phase — Poisson arrivals over the warm mix;
3. deadline phase — fresh (unwarmed) queries under a small LP budget,
   exercising the partial-with-guarantee path deterministically (LP
   budgets are machine-independent, wall-clock deadlines are not);
4. streaming phase — NDJSON streams over the warm mix.

The report also carries ``plan_set_encodes``: how many plan sets the
gateway serialized, one per distinct plan set served (every later
response reuses the serialized text).  It is deterministic and gated
lower-is-better, so a return to per-response encoding fails the gate.

Timing metrics (qps, latency percentiles from the full client-side
sample set) are reported but never gated.  ``--min-qps`` turns the
report into a smoke check: exit 1 below the bar, or if any request
fails with a status other than 200/429 ("dropped").

Usage::

    python benchmarks/bench_serving.py --requests 60 --rate 100 \
        --json bench-serving.json --min-qps 50
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from repro.bench.workloads import SweepPoint, queries_for_point
from repro.serve import GatewayClient, GatewayConfig, launch
from repro.serve.protocol import query_to_doc

#: Tenants the generator cycles through (seeded choice per request).
TENANTS = ("tenant-a", "tenant-b", "tenant-c")

#: LP budget of the deadline phase: lands mid-ladder for the 5-table
#: chain queries it runs, so partials (not timeouts) dominate.
DEADLINE_LPS = 150


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile of the raw sample set (exact)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      int(round(p / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def run_serving_benchmark(*, shards: int = 2, mix_size: int = 6,
                          requests: int = 60, rate: float = 100.0,
                          deadline_requests: int = 4,
                          stream_requests: int = 4,
                          num_tables: int = 3, seed: int = 0,
                          scenario: str = "cloud") -> dict:
    """Run all four phases against a fresh gateway; return the report."""
    rng = random.Random(seed)
    mix = queries_for_point(
        SweepPoint(num_tables=num_tables, shape="chain", num_params=1,
                   resolution=2), count=mix_size, base_seed=seed)
    mix_docs = [query_to_doc(q) for q in mix]
    deadline_queries = queries_for_point(
        SweepPoint(num_tables=5, shape="chain", num_params=1,
                   resolution=2), count=deadline_requests,
        base_seed=seed + 1000)

    config = GatewayConfig(shards=shards, scenario=scenario,
                           tenant_rate=10_000.0, tenant_burst=10_000.0,
                           max_pending=256)
    statuses: dict[str, int] = {}
    http_codes: dict[str, int] = {}
    latencies: list[float] = []
    dropped = 0

    with launch(config) as handle:
        client = GatewayClient(handle.host, handle.port, timeout=300.0)

        def fire(doc: dict, tenant: str, **fields) -> None:
            nonlocal dropped
            started = time.monotonic()
            try:
                response = client.optimize(doc=doc, tenant=tenant,
                                           **fields)
            except Exception:
                dropped += 1
                return
            latencies.append(time.monotonic() - started)
            http_codes[str(response.status_code)] = \
                http_codes.get(str(response.status_code), 0) + 1
            if response.status_code == 200:
                status = response.doc.get("status", "?")
                statuses[status] = statuses.get(status, 0) + 1
            elif response.status_code != 429:
                dropped += 1

        # Phase 1: warmup (sequential, not timed).
        for doc in mix_docs:
            fire(doc, "tenant-warmup")

        # Phase 2: open-loop Poisson main phase.  Arrival times are
        # fixed up front; a wide pool detaches sends from responses.
        arrivals = []
        clock = 0.0
        for _ in range(requests):
            clock += rng.expovariate(rate)
            arrivals.append(clock)
        choices = [(rng.randrange(mix_size), rng.choice(TENANTS))
                   for _ in range(requests)]
        main_started = time.monotonic()
        with ThreadPoolExecutor(max_workers=32) as pool:
            for arrival, (query_index, tenant) in zip(arrivals, choices):
                delay = main_started + arrival - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                pool.submit(fire, mix_docs[query_index], tenant)
        main_elapsed = time.monotonic() - main_started

        # Phase 3: deadline-bounded requests on fresh queries.
        for query in deadline_queries:
            fire(query_to_doc(query), "tenant-deadline",
                 budget={"lps": DEADLINE_LPS})

        # Phase 4: NDJSON streams over the warm mix.
        stream_events = 0
        for index in range(stream_requests):
            lines = list(client.stream_optimize(
                doc=mix_docs[index % mix_size], tenant="tenant-stream"))
            stream_events += sum(1 for line in lines
                                 if line["kind"] != "done")
            if not lines or lines[-1].get("status") not in ("ok",
                                                            "partial"):
                dropped += 1

        counters = client.metrics()

    latency_ms = sorted(s * 1000.0 for s in latencies)
    return {
        "kind": "serving",
        "scenario": scenario,
        "shape": "chain",
        "num_tables": num_tables,
        "shards": shards,
        "mix_size": mix_size,
        "requests": requests,
        "rate": rate,
        "deadline_requests": deadline_requests,
        "stream_requests": stream_requests,
        "seed": seed,
        "dropped": dropped,
        "qps": requests / main_elapsed if main_elapsed > 0 else 0.0,
        "elapsed_seconds": main_elapsed,
        "statuses": statuses,
        "http": http_codes,
        "stream_events": stream_events,
        "plan_set_encodes": counters["plan_set_encodes"],
        "latency_ms": {
            "mean": (sum(latency_ms) / len(latency_ms)
                     if latency_ms else 0.0),
            "p50": percentile(latency_ms, 50),
            "p95": percentile(latency_ms, 95),
            "p99": percentile(latency_ms, 99),
            "max": latency_ms[-1] if latency_ms else 0.0,
        },
        "counters": counters,
    }


def format_report(report: dict) -> str:
    latency = report["latency_ms"]
    totals = report["counters"]["totals"]
    routing = report["counters"]["routing"]
    lines = [
        f"serving benchmark ({report['shards']} shards, "
        f"mix {report['mix_size']}, seed {report['seed']})",
        f"  open loop: {report['requests']} requests at "
        f"{report['rate']:g}/s nominal -> {report['qps']:.1f} qps "
        f"sustained, {report['dropped']} dropped",
        f"  latency ms: p50 {latency['p50']:.1f}  "
        f"p95 {latency['p95']:.1f}  p99 {latency['p99']:.1f}  "
        f"max {latency['max']:.1f}",
        f"  statuses: {report['statuses']}",
        f"  counters: admitted {totals['admitted']}, completed "
        f"{totals['completed']}, deadline partials "
        f"{totals['deadline_partials']}, streams {totals['streams']}",
        f"  routing: sticky {routing['sticky_hits']}/"
        f"{routing['requests']}, shard hits {routing['shard_hits']}",
        f"  plan sets encoded: {report['plan_set_encodes']}",
    ]
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--mix", type=int, default=6,
                        help="distinct queries in the mix")
    parser.add_argument("--requests", type=int, default=60,
                        help="open-loop main-phase requests")
    parser.add_argument("--rate", type=float, default=100.0,
                        help="nominal Poisson arrival rate (req/s)")
    parser.add_argument("--deadline-requests", type=int, default=4)
    parser.add_argument("--stream-requests", type=int, default=4)
    parser.add_argument("--tables", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scenario", default="cloud")
    parser.add_argument("--json", default=None,
                        help="write the JSON report here")
    parser.add_argument("--min-qps", type=float, default=None,
                        help="exit 1 when sustained qps falls below "
                             "this bar")
    args = parser.parse_args()

    report = run_serving_benchmark(
        shards=args.shards, mix_size=args.mix, requests=args.requests,
        rate=args.rate, deadline_requests=args.deadline_requests,
        stream_requests=args.stream_requests, num_tables=args.tables,
        seed=args.seed, scenario=args.scenario)
    print(format_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if report["dropped"]:
        print(f"FAIL: {report['dropped']} dropped (non-429 failure) "
              f"request(s)", file=sys.stderr)
        return 1
    if args.min_qps is not None and report["qps"] < args.min_qps:
        print(f"FAIL: sustained {report['qps']:.1f} qps below the "
              f"--min-qps {args.min_qps:g} bar", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
