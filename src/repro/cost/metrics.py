"""Cost metrics for multi-objective optimization.

A cost metric is anything a query plan can be charged for: execution time,
monetary fees, result-precision loss, energy, ...  The paper only requires
that (a) lower values are better and (b) the Principle of Optimality holds
for each metric (Section 5.2).  Quality metrics where higher is better are
modeled by their loss (e.g. ``precision loss = 1 - precision``), exactly as
prescribed in Section 2.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostMetric:
    """A single cost metric.

    Attributes:
        name: Unique identifier, e.g. ``"time"``.
        unit: Human-readable unit, e.g. ``"hours"`` or ``"USD"``.
        description: One-line explanation.
        accumulator: How a plan's metric value combines its sub-plans'
            values: ``"sum"`` (sequential execution / additive fees) or
            ``"max"`` (parallel branches).  Section 6.2 notes the
            accumulation functions minimum/maximum/weighted-sum keep PWL
            functions PWL.
    """

    name: str
    unit: str = ""
    description: str = ""
    accumulator: str = "sum"

    def __post_init__(self) -> None:
        if self.accumulator not in ("sum", "max"):
            raise ValueError(
                f"unsupported accumulator: {self.accumulator!r}")


#: Scenario 1 metrics — Cloud execution time and monetary fees.
TIME = CostMetric(name="time", unit="hours",
                  description="wall-clock query execution time")
FEES = CostMetric(name="fees", unit="USD",
                  description="monetary execution fees (proportional to "
                              "total work across cluster nodes)")

#: Scenario 2 metric — result precision loss in approximate processing.
PRECISION_LOSS = CostMetric(
    name="precision_loss", unit="",
    description="1 - result precision for approximate query processing",
    accumulator="max")

#: The metric set used throughout the paper's evaluation (Section 7).
CLOUD_METRICS = (TIME, FEES)

#: The metric set of Scenario 2 (embedded approximate processing).
APPROX_METRICS = (TIME, PRECISION_LOSS)
