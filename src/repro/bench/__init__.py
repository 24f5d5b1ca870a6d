"""Experimental harness: workloads, sweep runner, Figure 12 + serving
(batch, streaming, pool-regime) reporting."""

from .reporting import (ascii_log_chart, figure12_report,
                        format_anytime_ladder, format_pool_comparison,
                        format_streaming_table, format_throughput_table,
                        format_table)
from .runner import (PAPER_FAITHFUL, AggregatedPoint, AnytimeLadderReport,
                     AnytimeRungPoint, Measurement, StreamingPoint,
                     ThroughputPoint, run_anytime_ladder,
                     run_batch_throughput, run_point, run_pool_comparison,
                     run_query_measurement, run_streaming_throughput,
                     run_sweep)
from .workloads import (FULL, QUICK, SweepPoint, SweepProfile,
                        drift_statistics, queries_for_point, stable_seed,
                        sweep_points)

__all__ = [
    "FULL",
    "PAPER_FAITHFUL",
    "QUICK",
    "AggregatedPoint",
    "AnytimeLadderReport",
    "AnytimeRungPoint",
    "Measurement",
    "StreamingPoint",
    "SweepPoint",
    "SweepProfile",
    "ThroughputPoint",
    "ascii_log_chart",
    "drift_statistics",
    "figure12_report",
    "format_anytime_ladder",
    "format_pool_comparison",
    "format_streaming_table",
    "format_table",
    "format_throughput_table",
    "queries_for_point",
    "run_anytime_ladder",
    "run_batch_throughput",
    "run_point",
    "run_pool_comparison",
    "run_query_measurement",
    "run_streaming_throughput",
    "run_sweep",
    "stable_seed",
    "sweep_points",
]
