"""repro — Multi-Objective Parametric Query Optimization (MPQ).

A complete reproduction of Trummer & Koch, "Multi-Objective Parametric
Query Optimization" (VLDB 2014): the generic Relevance Region Pruning
Algorithm (RRPA), its piecewise-linear specialization PWL-RRPA, the Cloud
cost-model scenario the paper evaluates, classical/multi-objective/
parametric baselines, and the full experimental harness for Figure 12 —
wrapped in a session-level serving API (:mod:`repro.api`).

Quickstart::

    from repro import QueryGenerator
    from repro.api import OptimizerSession

    queries = [QueryGenerator(seed=s).generate(num_tables=4,
                                               shape="chain", num_params=1)
               for s in range(4)]
    with OptimizerSession("cloud", workers=0) as session:
        for item in session.as_completed(queries):
            plan, cost = item.plan_set.select([0.4], {"time": 1.0,
                                                      "fees": 0.5})
            print(item.index, item.status, plan, cost)
"""

from .api import optimize_query
from .catalog import Catalog, Column, Index, Table
from .cloud import CloudCostModel, ClusterSpec, PricingModel
from .core import (GridBackend, OptimizationResult, OptimizerStats,
                   PWLBackend, PWLRRPA, PWLRRPAOptions, PlanEntry,
                   PlanSelector, RRPA, RRPABackend, SelectedPlan, make_grid)
from .cost import (APPROX_METRICS, CLOUD_METRICS, CostMetric, LinearPiece,
                   MultiObjectivePWL, ParamPolynomial,
                   PiecewiseLinearFunction, SharedPartition)
from .errors import ReproError
from .geometry import ConvexPolytope, LinearConstraint, RelevanceRegion
from .lp import LinearProgramSolver, LPStats
from .plans import (JoinOperator, JoinPlan, Plan, ScanOperator, ScanPlan,
                    combine, one_line, render_plan)
from .query import (JoinGraph, JoinPredicate, ParametricPredicate, Query,
                    QueryGenerator)
from .service import (BatchItem, OptimizerSession, Scenario,
                      ScenarioRegistry, WarmStartCache, available_scenarios,
                      get_scenario, query_signature, register_scenario)

__version__ = "2.0.0"

__all__ = [
    "APPROX_METRICS",
    "BatchItem",
    "CLOUD_METRICS",
    "Catalog",
    "CloudCostModel",
    "ClusterSpec",
    "Column",
    "ConvexPolytope",
    "CostMetric",
    "GridBackend",
    "Index",
    "JoinGraph",
    "JoinOperator",
    "JoinPlan",
    "JoinPredicate",
    "LPStats",
    "LinearConstraint",
    "LinearPiece",
    "LinearProgramSolver",
    "MultiObjectivePWL",
    "OptimizationResult",
    "OptimizerSession",
    "OptimizerStats",
    "PWLBackend",
    "PWLRRPA",
    "PWLRRPAOptions",
    "ParamPolynomial",
    "ParametricPredicate",
    "PiecewiseLinearFunction",
    "Plan",
    "PlanEntry",
    "PlanSelector",
    "PricingModel",
    "Query",
    "QueryGenerator",
    "RRPA",
    "RRPABackend",
    "RelevanceRegion",
    "ReproError",
    "Scenario",
    "ScenarioRegistry",
    "ScanOperator",
    "ScanPlan",
    "SelectedPlan",
    "SharedPartition",
    "Table",
    "WarmStartCache",
    "available_scenarios",
    "combine",
    "get_scenario",
    "make_grid",
    "one_line",
    "optimize_query",
    "query_signature",
    "register_scenario",
    "render_plan",
]
