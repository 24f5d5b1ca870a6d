"""Reporting helpers: render Figure 12-style tables and series.

The paper plots log-scale curves; a terminal reproduction renders the same
series as aligned tables plus coarse ASCII log-scale charts so curve
*shapes* (exponential growth in tables, star above chain, #LPs well above
#plans) are visible at a glance.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .runner import (AggregatedPoint, AnytimeLadderReport, StreamingPoint,
                     ThroughputPoint)


def format_table(points: Sequence[AggregatedPoint]) -> str:
    """Render aggregated sweep points as an aligned text table.

    Paper: Section 7, Figure 12; examples/figure12.py prints it.
    """
    header = (f"{'tables':>6} {'shape':>6} {'params':>6} "
              f"{'time[s]':>10} {'#plans':>8} {'#LPs':>10} {'runs':>5}")
    lines = [header, "-" * len(header)]
    for ap in points:
        lines.append(
            f"{ap.point.num_tables:>6} {ap.point.shape:>6} "
            f"{ap.point.num_params:>6} {ap.median_seconds:>10.3f} "
            f"{ap.median_plans:>8.0f} {ap.median_lps:>10.0f} "
            f"{ap.samples:>5}")
    return "\n".join(lines)


def format_throughput_table(points: Sequence[ThroughputPoint]) -> str:
    """Render batch-throughput points with speedup over the baseline row.

    Speedup is computed per (scenario, shape, table-count, pool regime)
    workload relative to the smallest worker count measured for it
    (normally the single-process baseline).
    """
    baseline: dict[tuple, ThroughputPoint] = {}
    for tp in points:
        key = (tp.scenario, tp.shape, tp.num_tables, tp.pool)
        if key not in baseline or tp.workers < baseline[key].workers:
            baseline[key] = tp
    header = (f"{'scenario':>8} {'shape':>6} {'tables':>6} {'pool':>10} "
              f"{'queries':>8} {'workers':>8} {'time[s]':>10} {'qps':>8} "
              f"{'speedup':>8} {'fail':>5}")
    lines = [header, "-" * len(header)]
    for tp in points:
        base = baseline[(tp.scenario, tp.shape, tp.num_tables, tp.pool)]
        speedup = tp.qps / base.qps if base.qps > 0 else float("nan")
        lines.append(
            f"{tp.scenario:>8} {tp.shape:>6} {tp.num_tables:>6} "
            f"{tp.pool:>10} {tp.queries:>8} {tp.workers:>8} "
            f"{tp.seconds:>10.3f} {tp.qps:>8.2f} "
            f"{speedup:>7.2f}x {tp.failures:>5}")
    return "\n".join(lines)


def format_pool_comparison(points: Sequence[ThroughputPoint]) -> str:
    """Render cold-vs-persistent pool points with the persistent gain."""
    cold = {(tp.scenario, tp.shape, tp.num_tables, tp.workers): tp
            for tp in points if tp.pool == "cold"}
    lines = [format_throughput_table(points)]
    for tp in points:
        if tp.pool != "persistent":
            continue
        base = cold.get((tp.scenario, tp.shape, tp.num_tables, tp.workers))
        if base is not None and tp.qps > 0:
            lines.append(
                f"persistent pool vs cold ({tp.scenario}, {tp.shape}, "
                f"{tp.num_tables} tables, {tp.workers} workers): "
                f"{tp.qps / base.qps:.2f}x qps")
    return "\n".join(lines)


def format_streaming_table(points: Sequence[StreamingPoint]) -> str:
    """Render streaming-throughput points (with time-to-first-result)."""
    header = (f"{'scenario':>8} {'shape':>6} {'tables':>6} {'queries':>8} "
              f"{'workers':>8} {'time[s]':>10} {'first[s]':>9} "
              f"{'qps':>8} {'fail':>5}")
    lines = [header, "-" * len(header)]
    for sp in points:
        lines.append(
            f"{sp.scenario:>8} {sp.shape:>6} {sp.num_tables:>6} "
            f"{sp.queries:>8} {sp.workers:>8} {sp.seconds:>10.3f} "
            f"{sp.first_result_seconds:>9.3f} {sp.qps:>8.2f} "
            f"{sp.failures:>5}")
    return "\n".join(lines)


def format_anytime_ladder(report: AnytimeLadderReport) -> str:
    """Render a time-to-first-guarantee report as an aligned table."""
    header = (f"{'rung':>4} {'alpha':>6} {'bound':>7} {'plans':>6} "
              f"{'#LPs':>8} {'time[s]':>9}")
    lines = [f"anytime ladder — {report.scenario}, {report.shape}, "
             f"{report.num_tables} tables, {report.queries} queries",
             header, "-" * len(header)]
    for rung in report.rungs:
        lines.append(
            f"{rung.rung:>4} {rung.alpha:>6.2f} {rung.guarantee:>7.3f} "
            f"{rung.plan_count:>6} {rung.lps_solved:>8} "
            f"{rung.seconds:>9.3f}")
    lines.append(
        f"first guarantee after {report.first_guarantee_seconds:.3f}s "
        f"(direct exact: {report.direct_seconds:.3f}s, "
        f"{report.direct_lps} LPs; full ladder: "
        f"{report.ladder_seconds:.3f}s, {report.ladder_lps} LPs)")
    return "\n".join(lines)


def ascii_log_chart(series: dict[str, list[tuple[int, float]]],
                    title: str, width: int = 50) -> str:
    """Render ``label -> [(x, y), ...]`` series as a log-scale ASCII chart.

    Each series becomes one row block: x values as columns, bar length
    proportional to ``log10(y)``.

    Paper: Section 7, Figure 12; examples/figure12.py prints it.
    """
    lines = [title]
    all_values = [y for pts in series.values() for __, y in pts if y > 0]
    if not all_values:
        return title + "\n(no data)"
    max_log = max(math.log10(max(v, 1e-9)) for v in all_values)
    min_log = min(math.log10(max(v, 1e-9)) for v in all_values)
    span = max(max_log - min_log, 1e-9)
    for label, pts in series.items():
        lines.append(f"  {label}:")
        for x, y in pts:
            frac = (math.log10(max(y, 1e-9)) - min_log) / span
            bar = "#" * max(1, int(round(frac * width)))
            lines.append(f"    x={x:>3}  {bar}  {y:.3g}")
    return "\n".join(lines)


def figure12_report(chain: Sequence[AggregatedPoint],
                    star: Sequence[AggregatedPoint]) -> str:
    """Full Figure 12 report: both columns, all three panels.

    Paper: Section 7, Figure 12; examples/figure12.py prints it.
    """
    sections = ["=== Figure 12 reproduction (medians per sweep point) ===",
                "", "--- Chain queries ---", format_table(chain),
                "", "--- Star queries ---", format_table(star), ""]
    for metric, attr in (("Optimization time [s]", "median_seconds"),
                         ("#Created plans", "median_plans"),
                         ("#Solved linear programs", "median_lps")):
        for label, pts in (("chain", chain), ("star", star)):
            series = {}
            for params in (1, 2):
                xs = [(ap.point.num_tables, getattr(ap, attr))
                      for ap in pts if ap.point.num_params == params]
                if xs:
                    series[f"{params} param(s)"] = xs
            sections.append(ascii_log_chart(
                series, f"{metric} — {label} queries (log scale)"))
            sections.append("")
    return "\n".join(sections)
