"""Optimization service: sessions, scenarios and caching.

Public API:

* :class:`OptimizerSession` — the unified front door: one submit/collect
  path over an executor (in-process for serial sessions, a persistent
  worker pool otherwise), session-scoped caches, and
  ``submit``/``as_completed``/``map``/``optimize`` over named scenarios,
  plus ``optimize_iter``, which steps its run in the calling thread on
  every session (see also :mod:`repro.api`).
* :class:`Scenario` / :class:`ScenarioRegistry` /
  :func:`register_scenario` / :func:`get_scenario` /
  :func:`available_scenarios` — the pluggable scenario registry with
  built-in ``"cloud"`` and ``"approx"`` workloads.
* :class:`BatchItem` — outcome of one submitted query.
* :class:`WarmStartCache` — LRU (optionally store-backed) cache of
  serialized Pareto plan sets, each decoded once on its first hit.
* :func:`query_signature` / :func:`signature_document` — the cache key:
  a digest of the query's join graph, statistics, scenario and
  cost-model config.
"""

from .cache import WarmStartCache
from .registry import (Scenario, ScenarioRegistry, available_scenarios,
                       default_registry, get_scenario, register_scenario)
from .session import STATUSES, BatchItem, OptimizerSession
from .signature import query_signature, signature_document

__all__ = [
    "STATUSES",
    "BatchItem",
    "OptimizerSession",
    "Scenario",
    "ScenarioRegistry",
    "WarmStartCache",
    "available_scenarios",
    "default_registry",
    "get_scenario",
    "query_signature",
    "register_scenario",
    "signature_document",
]
