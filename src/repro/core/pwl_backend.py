"""PWL-RRPA backend: Algorithms 2 and 3 of the paper.

This backend specializes the generic RRPA to piecewise-linear cost
functions:

* cost objects are :class:`repro.cost.MultiObjectivePWL` functions;
* relevance regions are :class:`repro.geometry.RelevanceRegion` objects
  (complements of convex-polytope cutouts, Theorem 4 / Figure 8);
* ``Dom`` produces convex polytopes per linear region (Theorem 2,
  Algorithm 3) which are subtracted from RRs by adding them as cutouts
  (Algorithm 2);
* emptiness checks follow Algorithm 2, with all three refinements of
  Section 6.2 individually switchable for the ablation benchmarks:
  redundant-constraint elimination, redundant-cutout elimination, and
  relevance points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Sequence

from ..cost import (MultiObjectivePWL, accumulator_map,
                    batch_dominance_aligned)
from ..geometry import (ConvexPolytope, RelevanceRegion,
                        default_relevance_points)
from ..lp import LinearProgramSolver, LPStats
from ..plans import JoinOperator, ScanOperator, ScanPlan
from .backend import RRPABackend
from .stats import OptimizerStats


@dataclass(frozen=True)
class PWLRRPAOptions:
    """Tunables of the PWL backend.

    Attributes:
        emptiness_strategy: ``"difference"`` (exact up to measure zero) or
            ``"convexity"`` (the paper's Algorithm 2 via union-convexity
            recognition; sound for pruning, may retain extra plans).
        use_relevance_points: Enable refinement 3 of Section 6.2 (witness
            points that avoid emptiness LPs).
        relevance_points_per_axis: Witness-grid density per parameter axis.
        simplify_polytopes: Enable refinement 1 (drop redundant linear
            constraints from dominance polytopes before they become
            cutouts).  Off by default: with cell-tagged dominance
            polytopes the constraint sets are already near-minimal and
            the redundancy LPs dominate the run time (see the ablation
            benchmark).
        remove_redundant_cutouts: Enable refinement 2 (drop cutouts covered
            by the other cutouts of the same RR) — applied lazily when a
            region accumulates more than ``cutout_cleanup_threshold``
            cutouts.
        cutout_cleanup_threshold: See above.
        lp_cache_size: Size of the per-run LP-result memo cache keyed by
            canonicalized constraint sets (0 disables).  Cache hits are
            not counted as solved LPs.
        approximation_factor: Alpha >= 0 for *alpha-dominance* pruning
            (the approximation-scheme idea of the paper's companion work,
            citation [31]): a plan is pruned wherever an alternative is
            within a ``(1 + alpha)`` factor on every metric.  Shrinks the
            plan set; the kept set then guarantees a multiplicative cost
            regret of at most ``(1 + alpha)`` per pruning comparison
            chain (bounded by the number of DP levels).  0 reproduces the
            paper's exact algorithm.
    """

    emptiness_strategy: str = "difference"
    use_relevance_points: bool = True
    relevance_points_per_axis: int = 3
    simplify_polytopes: bool = False
    remove_redundant_cutouts: bool = False
    cutout_cleanup_threshold: int = 12
    lp_cache_size: int = 4096
    approximation_factor: float = 0.0

    def __post_init__(self) -> None:
        if not self.approximation_factor >= 0:  # NaN included
            raise ValueError("approximation factor must be >= 0")
        if self.lp_cache_size < 0:
            raise ValueError("LP cache size must be >= 0")


class PWLBackend(RRPABackend):
    """Backend implementing Algorithms 2 and 3 on a PWL cost model.

    Args:
        cost_model: Object exposing ``scan_operators``, ``join_operators``,
            ``scan_cost``, ``join_local_cost``, ``metrics`` and
            ``partition`` (e.g. :class:`repro.cloud.CloudCostModel`).
        options: Backend tunables.
        lp_stats: LP counter shared with the optimizer statistics; a fresh
            one is created when omitted.
        stats: Optional optimizer stats for emptiness-check accounting.
    """

    def __init__(self, cost_model, options: PWLRRPAOptions | None = None,
                 lp_stats: LPStats | None = None,
                 stats: OptimizerStats | None = None) -> None:
        self.cost_model = cost_model
        self.options = options or PWLRRPAOptions()
        self.lp_stats = lp_stats if lp_stats is not None else LPStats()
        self.solver = LinearProgramSolver(
            stats=self.lp_stats, cache_size=self.options.lp_cache_size)
        self.stats = stats
        self.space: ConvexPolytope = cost_model.partition.space
        self._accumulators = accumulator_map(cost_model.metrics)
        self._point_template = None

    # ------------------------------------------------------------------
    # Operator / cost plumbing (delegated to the cost model)
    # ------------------------------------------------------------------

    def scan_operators(self, table: str) -> Sequence[ScanOperator]:
        return self.cost_model.scan_operators(table)

    def join_operators(self) -> Sequence[JoinOperator]:
        return self.cost_model.join_operators()

    def scan_cost(self, plan: ScanPlan) -> MultiObjectivePWL:
        return self.cost_model.scan_cost(plan)

    def join_local_cost(self, left_tables: frozenset[str],
                        right_tables: frozenset[str],
                        operator: JoinOperator) -> MultiObjectivePWL:
        return self.cost_model.join_local_cost(left_tables, right_tables,
                                               operator)

    def accumulate(self, local_cost: MultiObjectivePWL,
                   sub_costs: Sequence[MultiObjectivePWL]
                   ) -> MultiObjectivePWL:
        total = local_cost
        for sub in sub_costs:
            total = total.add(sub, self.solver,
                              accumulators=self._accumulators)
        return total

    # ------------------------------------------------------------------
    # Relevance regions (Algorithm 2)
    # ------------------------------------------------------------------

    def full_region(self) -> RelevanceRegion:
        points = None
        if self.options.use_relevance_points:
            if self._point_template is None:
                self._point_template = default_relevance_points(
                    self.space, self.solver,
                    per_axis=self.options.relevance_points_per_axis)
            points = [p.copy() for p in self._point_template]
        # Seed the region's residual decomposition with the shared
        # partition's cells: cell-tagged dominance cutouts then only touch
        # pieces of their own cell (no cross-cell LP work).
        return RelevanceRegion(
            self.space, relevance_points=points,
            initial_pieces=self.cost_model.partition.regions)

    def dominance(self, cost_a: MultiObjectivePWL,
                  cost_b: MultiObjectivePWL) -> list[ConvexPolytope]:
        """Pairwise ``Dom``.

        Reference: dominance_many and dominance_many_rev fall back to it
        for batches the aligned kernel cannot take, and
        tests/test_vectorized_dominance.py holds them against it;
        perfbench/spans.py names it too.
        """
        polys = cost_a.dominance_polytopes(
            cost_b, self.solver, relax=self.options.approximation_factor)
        return self._simplified(polys)

    def _simplified(self, polys: list[ConvexPolytope]
                    ) -> list[ConvexPolytope]:
        if self.options.simplify_polytopes:
            # Whole grid cells (recognizable by their vertex hint) are
            # already minimal; only simplify polytopes that gained
            # dominance constraints.
            polys = [p if p.vertex_hint is not None
                     else p.remove_redundant(self.solver)
                     for p in polys]
        return polys

    def dominance_many(self, costs_a, cost_b) -> list[list[ConvexPolytope]]:
        """Vectorized ``Dom(a_k, b)`` over all aligned incumbents at once.

        Batches the aligned kernel cannot take fall back to pairwise
        ``Dom`` (:meth:`MultiObjectivePWL.dominance_polytopes`), where an
        unaligned pair runs the paper's general piece-pair loop.
        """
        batch = batch_dominance_aligned(
            costs_a, cost_b, self.solver,
            relax=self.options.approximation_factor, many_first=True)
        if batch is not None:
            return [self._simplified(polys) for polys in batch]
        return [self.dominance(cost_a, cost_b) for cost_a in costs_a]

    def dominance_many_rev(self, cost_a, costs_b
                           ) -> list[list[ConvexPolytope]]:
        """Vectorized ``Dom(a, b_k)`` over all aligned incumbents at once."""
        batch = batch_dominance_aligned(
            costs_b, cost_a, self.solver,
            relax=self.options.approximation_factor, many_first=False)
        if batch is not None:
            return [self._simplified(polys) for polys in batch]
        return [self.dominance(cost_a, cost_b) for cost_b in costs_b]

    @property
    def approximation_factor(self) -> float:
        """Alpha of the backend's alpha-dominance pruning (0 = exact)."""
        return self.options.approximation_factor

    def set_approximation_factor(self, alpha: float) -> None:
        """Re-target the backend's alpha-dominance pruning.

        Used by precision-ladder runs between rungs; every other option
        (and the solver with its LP memo) is kept, so LP results from
        coarser rungs keep hitting.
        """
        self.options = replace(self.options, approximation_factor=alpha)

    def reduce_region(self, region: RelevanceRegion,
                      dominated: list[ConvexPolytope]) -> None:
        region.subtract_many(dominated)
        if (self.options.remove_redundant_cutouts
                and region.num_cutouts
                > self.options.cutout_cleanup_threshold):
            region.remove_redundant_cutouts(self.solver)

    def region_is_empty(self, region: RelevanceRegion) -> bool:
        if region.relevance_points:
            # Witness point present: non-empty without any LP.
            if self.stats is not None:
                self.stats.emptiness_checks_skipped += 1
            return False
        if self.stats is not None:
            self.stats.emptiness_checks += 1
        return region.is_empty(
            self.solver, strategy=self.options.emptiness_strategy)

    def regions_empty_many(self, regions: Sequence[RelevanceRegion]
                           ) -> list[bool]:
        """:meth:`region_is_empty` over many regions, in order.

        Same as the inherited default; defined here so the traced run of
        ``perfbench/`` can wrap it by name on this class.
        """
        return [self.region_is_empty(region) for region in regions]

    def on_run_start(self) -> None:
        self._point_template = None
