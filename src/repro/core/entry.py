"""Plan-set entries: a plan, its cost function, and its relevance region.

RRPA's dynamic-programming table maps each table set ``q`` to a Pareto plan
set ``P_q`` and a relevance mapping ``R_q`` (Algorithm 1).  A
:class:`PlanEntry` bundles one plan with its cost function and relevance
region; the backend decides the concrete types of both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..plans import Plan


@dataclass
class PlanEntry:
    """One row of the DP table.

    Attributes:
        plan: The query plan.
        cost: Backend-specific cost-function object (a
            :class:`repro.cost.MultiObjectivePWL` for the PWL backend, a
            per-grid-point value table for the grid backend).
        region: Backend-specific relevance region; the plan is discarded
            once the backend reports it empty.
    """

    plan: Plan
    cost: Any
    region: Any
