"""Core MPQ optimizers: generic RRPA, PWL-RRPA, grid backend, selection.

Public API:

* :class:`RRPA` — the generic Algorithm 1 over an abstract backend.
* :class:`PWLRRPA` — the PWL specialization of Section 6 over any PWL
  cost model (named cost-model scenarios live in
  :mod:`repro.service.registry`; :func:`repro.api.optimize_query`
  optimizes under one).
* :class:`PWLBackend` / :class:`PWLRRPAOptions` — Algorithms 2+3 with the
  Section 6.2 refinements switchable.
* :class:`GridBackend` / :func:`make_grid` — generic-RRPA instantiation
  for arbitrary cost functions over finite parameter grids.
* :class:`OptimizationResult`, :class:`PlanEntry`, :class:`OptimizerStats`.
* :class:`PlanSelector` — run-time plan selection (Figure 2).
"""

from .backend import RRPABackend
from .entry import PlanEntry
from .enumeration import count_considered_splits, splits, subsets_in_size_order
from .grid import GridBackend, GridCost, GridRegion, make_grid
from .pwl_backend import PWLBackend, PWLRRPAOptions
from .pwl_rrpa import PWLRRPA
from .rrpa import RRPA, OptimizationResult
from .run import (DEFAULT_PRECISION_LADDER, DEFAULT_SEED_CAP, RUN_COMPLETED,
                  RUN_EXHAUSTED, SEED_JUMP_ALPHA, Budget, OptimizationRun,
                  ProgressEvent, RungOutcome, guarantee_bound, ladder_to,
                  trim_ladder_for_seed, validate_ladder)
from .selection import PlanSelector, SelectedPlan
from .serialize import (StoredPlanSet, decode_plan, decode_plan_set,
                        encode_plan, encode_plan_set, encode_result,
                        load_plan_set, save_result)
from .stats import OptimizerStats

__all__ = [
    "Budget",
    "DEFAULT_PRECISION_LADDER",
    "DEFAULT_SEED_CAP",
    "GridBackend",
    "GridCost",
    "GridRegion",
    "OptimizationResult",
    "OptimizationRun",
    "OptimizerStats",
    "PWLBackend",
    "PWLRRPA",
    "PWLRRPAOptions",
    "PlanEntry",
    "PlanSelector",
    "ProgressEvent",
    "RRPA",
    "RRPABackend",
    "RUN_COMPLETED",
    "RUN_EXHAUSTED",
    "RungOutcome",
    "SEED_JUMP_ALPHA",
    "SelectedPlan",
    "StoredPlanSet",
    "count_considered_splits",
    "decode_plan",
    "decode_plan_set",
    "encode_plan",
    "encode_plan_set",
    "encode_result",
    "guarantee_bound",
    "ladder_to",
    "load_plan_set",
    "make_grid",
    "save_result",
    "splits",
    "subsets_in_size_order",
    "trim_ladder_for_seed",
    "validate_ladder",
]
