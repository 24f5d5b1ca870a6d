"""Cost accumulation for combined plans (``AccumulateCost``, Algorithm 3).

When two sub-plans are combined by a join operator, the new plan's cost is
the accumulation of both sub-plan costs plus the operator's own cost.  The
paper's pseudo-code sums weight vectors and base costs within intersected
linear regions; footnote 1 notes the general two-step form used here —
first accumulate the sub-plan costs, then add the join cost.

Accumulation honours each metric's accumulator (``sum`` for sequential
work/fees, ``max`` for metrics like precision loss where the worst branch
dominates), per Section 6.2's remark that minimum, maximum and weighted sum
all preserve piecewise linearity.  :meth:`repro.core.PWLBackend.accumulate`
runs it: the operator's cost, then each sub-plan's cost added with
:meth:`MultiObjectivePWL.add <repro.cost.MultiObjectivePWL.add>` under the
accumulators this module maps.
"""

from __future__ import annotations

from collections.abc import Sequence

from .metrics import CostMetric


def accumulator_map(metrics: Sequence[CostMetric]) -> dict[str, str]:
    """Return the per-metric accumulator mapping for a metric sequence."""
    return {m.name: m.accumulator for m in metrics}
