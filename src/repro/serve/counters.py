"""Serving counters: per-tenant accounting and latency histograms.

Counters split into two determinism classes, and the split matters for
benchmarking (``bench_compare.py --serving`` gates the first class
across runs and machines, never the second):

* **Deterministic counters** — admitted / rejected / completed /
  deadline-partial counts per tenant, shard hit distributions, sticky
  hits.  With a seeded workload these are pure functions of the request
  mix, so regressions in admission or routing logic show up as exact
  counter mismatches.
* **Timing metrics** — latency histograms, percentile estimates, qps.
  Machine-dependent by nature; reported for operators, never gated.

Everything here is mutated only from the gateway's event-loop thread,
so no locks.  ``snapshot()`` renders the whole tree as a JSON-ready
dict; ``docs/counters.md`` is the field-by-field glossary.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field

#: Upper bounds (milliseconds) of the latency histogram buckets; the
#: last bucket is unbounded.  Geometric-ish spacing keeps percentile
#: estimates within ~2x at every scale from sub-millisecond cache hits
#: to multi-second exact optimizations.
LATENCY_BUCKETS_MS = (1, 2, 5, 10, 20, 50, 100, 200, 500,
                      1000, 2000, 5000, 10000, 30000)


class LatencyHistogram:
    """Fixed-bucket latency histogram with percentile estimates."""

    def __init__(self) -> None:
        self.counts = [0] * (len(LATENCY_BUCKETS_MS) + 1)
        self.total = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def record(self, seconds: float) -> None:
        """Record one request latency."""
        ms = seconds * 1000.0
        self.counts[bisect.bisect_left(LATENCY_BUCKETS_MS, ms)] += 1
        self.total += 1
        self.sum_ms += ms
        self.max_ms = max(self.max_ms, ms)

    def percentile(self, p: float) -> float:
        """Upper-bound estimate (ms) of the ``p``-th percentile.

        Returns the upper edge of the bucket containing the percentile
        rank (``max_ms`` for the unbounded tail bucket), or 0 when
        empty.
        """
        if self.total == 0:
            return 0.0
        rank = p / 100.0 * self.total
        running = 0
        for i, count in enumerate(self.counts):
            running += count
            if running >= rank:
                if i < len(LATENCY_BUCKETS_MS):
                    return float(LATENCY_BUCKETS_MS[i])
                return self.max_ms
        return self.max_ms

    def snapshot(self) -> dict:
        return {"buckets_ms": list(LATENCY_BUCKETS_MS),
                "counts": list(self.counts),
                "total": self.total,
                "mean_ms": self.sum_ms / self.total if self.total else 0.0,
                "max_ms": self.max_ms,
                "p50_ms": self.percentile(50),
                "p95_ms": self.percentile(95),
                "p99_ms": self.percentile(99)}


@dataclass
class TenantCounters:
    """Deterministic per-tenant request accounting.

    Attributes:
        admitted: Requests past admission (includes still-running).
        rejected_rate: 429s from the tenant's token bucket.
        rejected_capacity: 429s from the global pending bound.
        rejected_draining: 503s during drain.
        completed: Requests finished with a servable plan set
            (statuses ``ok`` / ``cached`` / ``partial`` / ``timeout``).
        deadline_partials: The subset of ``completed`` that hit a
            deadline or budget and returned best-so-far with a
            guarantee (statuses ``partial`` / ``timeout``).
        errors: Requests that failed inside the optimizer (HTTP 500).
        malformed: HTTP 400s attributed to this tenant (when the body
            parsed far enough to name one).
        streams: Admitted requests served over NDJSON streaming.
        events_streamed: Progress-event lines written across streams.
    """

    admitted: int = 0
    rejected_rate: int = 0
    rejected_capacity: int = 0
    rejected_draining: int = 0
    completed: int = 0
    deadline_partials: int = 0
    errors: int = 0
    malformed: int = 0
    streams: int = 0
    events_streamed: int = 0

    def snapshot(self) -> dict:
        return {"admitted": self.admitted,
                "rejected_rate": self.rejected_rate,
                "rejected_capacity": self.rejected_capacity,
                "rejected_draining": self.rejected_draining,
                "completed": self.completed,
                "deadline_partials": self.deadline_partials,
                "errors": self.errors,
                "malformed": self.malformed,
                "streams": self.streams,
                "events_streamed": self.events_streamed}


@dataclass
class ResilienceCounters:
    """Deterministic self-healing event counters of one gateway.

    Like :class:`TenantCounters` these are pure functions of the
    request mix under a fixed fault schedule, so the chaos benchmark
    (``bench_compare.py --chaos``) gates them exactly.  Mutated only
    from the event-loop thread.

    Attributes:
        shard_respawns: Shards torn down and rebuilt after a fatal
            executor/session failure (crash-detect + respawn).
        breaker_opens: Per-shard circuit-breaker open transitions
            (including a failed half-open probe re-opening).
        degraded_responses: Requests answered HTTP 200 ``"degraded"``
            from the persistent store after shard-side failure or
            breaker shedding, with an honest coarser guarantee.
        stop_sheds: In-flight requests shed with a clean 503 during
            the :meth:`~repro.serve.gateway.ServingGateway.stop`
            window instead of hanging on dead executors.
    """

    shard_respawns: int = 0
    breaker_opens: int = 0
    degraded_responses: int = 0
    stop_sheds: int = 0

    def snapshot(self) -> dict:
        return {"shard_respawns": self.shard_respawns,
                "breaker_opens": self.breaker_opens,
                "degraded_responses": self.degraded_responses,
                "stop_sheds": self.stop_sheds}


@dataclass
class ServingCounters:
    """The gateway's full counter tree.

    Aggregates tenant counters, the request-latency histogram and
    wall-clock bookkeeping for qps.  Router counters live on the
    router and are merged into the snapshot by the gateway.

    Attributes:
        plan_set_encodes: Plan sets the gateway serialized into
            response JSON: one per distinct plan set served, since
            every later response for the same plan set reuses its
            text.  Deterministic like the tenant counts.
    """

    tenants: dict[str, TenantCounters] = field(default_factory=dict)
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    started_monotonic: float = field(default_factory=time.monotonic)
    plan_set_encodes: int = 0

    def tenant(self, name: str) -> TenantCounters:
        counters = self.tenants.get(name)
        if counters is None:
            counters = TenantCounters()
            self.tenants[name] = counters
        return counters

    def totals(self) -> dict:
        """Deterministic counts summed over tenants."""
        total = TenantCounters()
        for counters in self.tenants.values():
            for key in total.snapshot():
                setattr(total, key,
                        getattr(total, key) + getattr(counters, key))
        return total.snapshot()

    def snapshot(self) -> dict:
        uptime = max(time.monotonic() - self.started_monotonic, 1e-9)
        totals = self.totals()
        return {"uptime_seconds": uptime,
                "qps": totals["completed"] / uptime,
                "totals": totals,
                "plan_set_encodes": self.plan_set_encodes,
                "tenants": {name: counters.snapshot()
                            for name, counters
                            in sorted(self.tenants.items())},
                "latency": self.latency.snapshot()}
