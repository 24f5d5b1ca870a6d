"""The Relevance Region Pruning Algorithm (RRPA), Algorithm 1 of the paper.

RRPA is a dynamic program over table sets: Pareto plan sets for joining a
table set are built from Pareto plan sets of its subsets.  Pruning is based
on *relevance regions* (RRs): every plan is associated with the parameter-
space region for which no known alternative dominates it.  A new plan's RR
starts as the full parameter space and is reduced by ``Dom(old, new)`` for
every incumbent plan; if it empties, the plan is discarded (Algorithm 1,
lines 36–44).  Otherwise the incumbents' RRs are reduced by ``Dom(new,
old)`` and incumbents with empty RRs are displaced (lines 47–54).

Theorem 3 proves RRPA generates a complete Pareto plan set for arbitrary
MPQ instances (given the Principle of Optimality per metric); the
integration test-suite verifies this against brute-force enumeration.

The class is generic over an :class:`repro.core.backend.RRPABackend`; see
:mod:`repro.core.pwl_backend` (PWL cost functions, the paper's Section 6)
and :mod:`repro.core.grid` (arbitrary cost functions on a finite grid).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..plans import Plan
from ..query import Query
from .backend import RRPABackend
from .entry import PlanEntry
from .stats import OptimizerStats


@dataclass
class OptimizationResult:
    """Outcome of one RRPA run.

    Attributes:
        query: The optimized query.
        entries: Pareto plan set for the full table set, with cost
            functions and relevance regions.
        stats: Run statistics (plans created, LPs solved, wall time).
        dp_table: The full DP table (table set -> surviving entries);
            useful for analysis and debugging.
        achieved_alpha: Approximation factor the plan set was pruned
            with (``0.0`` for the paper's exact algorithm).
        guarantee: Multiplicative end-to-end cost bound: every possible
            plan is covered by a returned plan within this factor on all
            metrics (``1.0`` for exact runs; see
            :func:`repro.core.run.guarantee_bound`).
    """

    query: Query
    entries: list[PlanEntry]
    stats: OptimizerStats
    dp_table: dict[frozenset[str], list[PlanEntry]] = field(
        default_factory=dict)
    achieved_alpha: float = 0.0
    guarantee: float = 1.0

    def plans_for(self, x) -> list[PlanEntry]:
        """Entries whose relevance region contains parameter vector ``x``.

        The relevance-mapping property guarantees the returned entries
        contain a dominating plan for every possible plan at ``x``.
        Falls back to all entries when a backend's region type does not
        expose point membership.
        """
        x = np.asarray(x, dtype=float)
        selected = []
        for entry in self.entries:
            contains = getattr(entry.region, "contains_point", None)
            if contains is None or contains(x):
                selected.append(entry)
        return selected or list(self.entries)

    def frontier_at(self, x) -> list[tuple[Plan, dict]]:
        """Non-dominated ``(plan, cost_dict)`` pairs at parameter ``x``."""
        return pareto_filter([(entry.plan, entry.cost.evaluate(x))
                              for entry in self.plans_for(x)])


def pareto_filter(costed: list[tuple[Plan, dict]]
                  ) -> list[tuple[Plan, dict]]:
    """The ``(plan, cost_dict)`` pairs of ``costed`` no other pair
    dominates (no higher on every metric, lower on one), in order."""
    return [(plan, values) for plan, values in costed
            if not any(all(other[m] <= values[m] for m in values)
                       and any(other[m] < values[m] for m in values)
                       for __, other in costed if other is not values)]


#: Incumbents per vectorized dominance batch while reducing the new
#: plan's RR.  Chunking bounds the work wasted when the RR empties
#: early (the scalar loop would have stopped at that incumbent).
PRUNE_CHUNK = 8


def prune_into(backend: RRPABackend, entries: list[PlanEntry],
               new_plan: Plan, new_cost: Any, stats: OptimizerStats) -> None:
    """Insert ``new_plan`` into ``entries`` unless it is irrelevant.

    Algorithm 1's procedure ``Prune``, shared by :class:`RRPA` and the
    resumable :class:`repro.core.run.OptimizationRun` engine.
    """
    stats.plans_created += 1
    new_region = backend.full_region()
    # Reduce the new plan's RR by every incumbent's dominance region.
    for start in range(0, len(entries), PRUNE_CHUNK):
        chunk = entries[start:start + PRUNE_CHUNK]
        dom_lists = backend.dominance_many(
            [old.cost for old in chunk], new_cost)
        for dominated in dom_lists:
            stats.pruning_comparisons += 1
            backend.reduce_region(new_region, dominated)
            if backend.region_is_empty(new_region):
                stats.plans_discarded_new += 1
                return
    # The new plan is relevant somewhere: displace dominated incumbents.
    # Reductions are LP-free (they only record cutouts), so all of them
    # can go first and the emptiness checks follow as one batch.
    survivors = []
    dom_lists = backend.dominance_many_rev(
        new_cost, [old.cost for old in entries])
    for old, dominated in zip(entries, dom_lists):
        stats.pruning_comparisons += 1
        backend.reduce_region(old.region, dominated)
    empties = backend.regions_empty_many([old.region for old in entries])
    for old, empty in zip(entries, empties):
        if empty:
            stats.plans_displaced_old += 1
        else:
            survivors.append(old)
    entries[:] = survivors
    entries.append(PlanEntry(plan=new_plan, cost=new_cost,
                             region=new_region))
    stats.plans_inserted += 1


class RRPA:
    """Generic MPQ optimizer (Algorithm 1).

    Since the anytime redesign this is a thin run-to-completion wrapper
    over the resumable :class:`repro.core.run.OptimizationRun` engine —
    one rung at the backend's configured approximation factor, which
    performs exactly the operations of the classic loop in the same
    order (bit-identical plan sets and statistics).

    Args:
        backend: Implementation of the elementary operations for the
            desired cost-function class.
    """

    def __init__(self, backend: RRPABackend) -> None:
        self.backend = backend

    def start_run(self, query: Query, *, precision_ladder=None,
                  seed_plans=None):
        """Create a resumable :class:`~repro.core.run.OptimizationRun`.

        ``precision_ladder=None`` runs a single rung at the backend's
        configured approximation factor (any backend); multi-rung
        ladders require backend support for
        :meth:`~repro.core.backend.RRPABackend.set_approximation_factor`.
        ``seed_plans`` warm-starts the first (coarse) rung from a
        similar query's plan set; see
        :class:`~repro.core.run.OptimizationRun`.

        Paper: Algorithm 1, the generic RRPA driver; reached with
        GridBackend by tests and the nightly benchmarks.
        """
        from .run import OptimizationRun
        return OptimizationRun(self.backend, query,
                               precision_ladder=precision_ladder,
                               seed_plans=seed_plans)

    def optimize(self, query: Query) -> OptimizationResult:
        """Compute a Pareto plan set for ``query``.

        Raises:
            OptimizationError: If some table set ends up with no plans
                (indicates an inconsistent cost model or backend).

        Paper: Algorithm 1, the generic RRPA driver; reached with
        GridBackend by tests and the nightly benchmarks.
        """
        run = self.start_run(query)
        run.run()
        return run.result()
