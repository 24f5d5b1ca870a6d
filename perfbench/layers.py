"""Per-layer metrics of a traced run, derived from its spans.

Span names are ``<layer>.<call>`` (see ``spans._targets``).  Times are
self times, so the layers' times under a root span add up to the
root's duration.  The functions return plain values; ``run.py``
attaches the units declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import numpy as np

#: Root spans of the exact workload: one ``optimize_query`` call on a
#: 1- or a 2-parameter query.
EXACT_ROOTS = ("core.optimize.1p", "core.optimize.2p")
#: Span names whose self time is the optimizer core (DP enumeration,
#: pruning bookkeeping: everything not inside a backend or LP call).
CORE_SPANS = EXACT_ROOTS + ("core.run",)


def optimizer_metrics(table, roots: np.ndarray, operations: int,
                      results=()) -> dict:
    """core, cost, geometry and LP metrics per operation.

    Args:
        table: The run's :class:`spans.SpanTable`.
        roots: Boolean mask of the root spans whose subtrees count
            (one optimization or one session call each).
        operations: Operations the run completed (the divisor).
        results: ``(OptimizerStats, pareto plan count)`` of each exact
            run, for the Figure-12 counters; empty when the optimizer
            ran behind a session (the counters then stay 0).
    """
    self_time = table.self_time()
    under = roots[table.root()]

    def total(*names: str) -> float:
        return float(self_time[under & table.mask(*names)].sum())

    def count(*names: str) -> int:
        return int(np.count_nonzero(under & table.mask(*names)))

    per = max(1, operations)
    root_wall = float(table.duration[roots].sum())

    def share(*names: str) -> float:
        return total(*names) / root_wall if root_wall else 0.0

    lp = total("lp.solve")
    metrics = {
        "core.share": share(*CORE_SPANS),
        "cost.share": share("cost.dominance", "cost.accumulate"),
        "geometry.share": share("geometry.polytope", "geometry.reduce",
                                "geometry.emptiness"),
        "core.self_s": total(*CORE_SPANS) / per,
        "cost.dominance.self_s": total("cost.dominance") / per,
        "cost.dominance.calls": count("cost.dominance") / per,
        "cost.accumulate.self_s": total("cost.accumulate") / per,
        "geometry.polytope.builds": count("geometry.polytope") / per,
        "geometry.polytope.self_s": total("geometry.polytope") / per,
        "geometry.reduce.self_s": total("geometry.reduce") / per,
        "geometry.emptiness.self_s": total("geometry.emptiness") / per,
        "lp.self_s": lp / per,
        "lp.share": lp / root_wall if root_wall else 0.0,
    }
    if results:
        metrics.update(_stats_metrics(results, count("lp.solve"), lp))
    return metrics


def _stats_metrics(results, lp_calls: int, lp_seconds: float) -> dict:
    """Figure-12 counters (#plans, #LPs) and LP dispatch ratios."""
    count = len(results)
    stats = [row[0] for row in results]
    solved = sum(s.lps_solved for s in stats)
    hits = sum(s.lp_stats.cache_hits for s in stats)
    stacked = sum(s.lp_stats.batch_solves for s in stats)
    checks = sum(s.emptiness_checks for s in stats)
    skipped = sum(s.emptiness_checks_skipped for s in stats)
    return {
        "core.plans_created": sum(s.plans_created for s in stats) / count,
        "core.pareto_plans": sum(row[1] for row in results) / count,
        "geometry.emptiness.checks": (checks + skipped) / count,
        "geometry.emptiness.skip_ratio":
            skipped / (checks + skipped) if checks + skipped else 0.0,
        "lp.solved": solved / count,
        "lp.memo_hit_ratio": hits / (hits + solved) if hits + solved
        else 0.0,
        "lp.us_per_lp": lp_seconds * 1e6 / solved if solved else 0.0,
        "lp.lps_per_call": (solved + hits) / lp_calls if lp_calls else 0.0,
        "lp.stacked_frac": stacked / solved if solved else 0.0,
    }


def serve_metrics(table, window_start: float, responses: int,
                  hits: int, client_seconds: float) -> dict:
    """service, store and serve metrics of a gateway run, plus the
    optimizer layers under the session calls.

    Args:
        table: The run's spans (warm-up included; only spans starting
            at or after ``window_start`` count).
        window_start: ``perf_counter`` time the measured load began.
        responses: Responses received in the window.
        hits: Responses answered from the memory tier (``cached``).
        client_seconds: Sum over responses of client-observed time from
            the actual send to the full response.
    """
    window = table.start >= window_start
    duration = table.duration
    roots = window & table.mask("service.optimize") & (table.parent < 0)
    root_ids = table.root()
    optimized = np.zeros(len(table), dtype=bool)
    optimized[root_ids[table.mask("core.run")]] = True
    hit_roots = roots & ~optimized
    per = max(1, responses)

    def spans(name: str) -> np.ndarray:
        return window & table.mask(name)

    def mean_ms(name: str) -> float:
        pick = spans(name)
        return float(duration[pick].mean() * 1e3) if pick.any() else 0.0

    session_wall = float(duration[roots].sum())
    under = roots[root_ids]
    self_time = table.self_time()

    def share(*names: str) -> float:
        pick = under & table.mask(*names)
        return float(self_time[pick].sum()) / session_wall \
            if session_wall else 0.0

    metrics = optimizer_metrics(table, roots, responses)
    metrics.update({
        "service.share": share("service.optimize", "service.signature",
                               "service.decode"),
        "store.share": share("store.get", "store.nearest", "store.put"),
        "service.signature_ms":
            float(duration[spans("service.signature")].sum()) * 1e3 / per,
        "service.decode_ms":
            float(duration[table.mask("service.decode")
                           & hit_roots[root_ids]].sum()) * 1e3
            / max(1, hits),
        "service.self_ms": float(self_time[roots].sum()) * 1e3 / per,
        "store.get_ms": mean_ms("store.get"),
        "store.nearest_ms": mean_ms("store.nearest"),
        "store.put_ms": mean_ms("store.put"),
        "store.puts": int(np.count_nonzero(spans("store.put"))),
        "serve.encode_ms":
            float(duration[spans("serve.encode")].sum()) * 1e3 / per,
        "serve.overhead_ms": (client_seconds - session_wall) * 1e3 / per,
    })
    return metrics
