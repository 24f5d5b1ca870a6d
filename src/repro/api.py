"""repro.api — the session-level front door for all optimization.

One import gives a serving process everything it needs::

    from repro.api import OptimizerSession

    with OptimizerSession("cloud", workers=4) as session:
        # Deterministic batch (input order), like the legacy engine:
        items = session.map(queries)
        # Streaming: results as they finish.
        for item in session.as_completed(more_queries):
            handle(item)
        # Async: one query, one future.
        future = session.submit(query)

The session owns a persistent worker pool (spawned lazily, reused across
calls, closed with the session), session-scoped caches (warm-start plan
sets, and the LP-result memo its in-process runs share; a pool task
runs on its own run's memo), and resolves cost-model workloads through
the scenario registry — ``"cloud"`` and ``"approx"`` are built in, and
``default_registry().register(...)`` adds new ones in one call.

Anytime optimization rides on the same session::

    # Best guaranteed plan set within the budget (serial or pooled):
    item = session.optimize(query, precision=0.0,
                            budget=Budget(seconds=0.5))
    item.alpha, item.guarantee   # achieved rung + (1+alpha)^n bound
    # Streaming refinement over a precision ladder:
    for event in session.optimize_iter(
            query, precision_ladder=[0.5, 0.2, 0.05, 0.0]):
        if event.kind == "rung_completed":
            serve(event.plan_set)  # valid within event.guarantee

See :mod:`repro.core.run` for the underlying resumable
:class:`OptimizationRun` engine.

To serve sessions over the network, the :mod:`repro.serve` gateway
shards them behind an HTTP front end with tenant budgets, signature
routing and live NDJSON progress streams.  Its names load
:mod:`repro.serve` on first access, so a process that never serves
loads no asyncio or HTTP code::

    from repro.api import GatewayClient, GatewayConfig, launch_gateway

    with launch_gateway(GatewayConfig(shards=2)) as handle:
        client = GatewayClient(handle.host, handle.port)
        response = client.optimize(query, tenant="team-a",
                                   deadline_seconds=2.0)

Plan sets survive process restarts through the :class:`PlanSetStore`
persistent tier — a single SQLite file shared by every session or
gateway shard pointed at it::

    from repro.api import OptimizerSession, PlanSetStore, WarmStartCache

    store = PlanSetStore("plans.db")
    with OptimizerSession("cloud",
                          cache=WarmStartCache(store=store)) as session:
        session.optimize(query)   # miss → optimize → persisted
    # next process: exact hit, or near-miss seeding of a similar query

For one-off scripts, :func:`optimize_query` optimizes a single query
under a named scenario without session ceremony.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .core import (DEFAULT_PRECISION_LADDER, Budget, OptimizationResult,
                   OptimizationRun, ProgressEvent, PWLRRPAOptions,
                   StoredPlanSet, decode_plan_set, encode_plan_set,
                   guarantee_bound, ladder_to)
from .faults import InjectedFault
from .query import Query
from .service.cache import WarmStartCache
from .service.registry import (Scenario, ScenarioRegistry,
                               available_scenarios, default_registry,
                               get_scenario)
from .service.session import STATUSES, BatchItem, OptimizerSession
from .service.signature import (family_digest, query_signature,
                                signature_document, signature_features,
                                statistics_digest)
from .store import PlanSetStore, StoreCounters

if TYPE_CHECKING:
    from .serve import (GatewayClient, GatewayConfig, GatewayHandle,
                        ServingGateway, StreamInterrupted)
    from .serve import launch as launch_gateway

#: The gateway names, resolved from :mod:`repro.serve` on first access
#: (:func:`__getattr__`): importing this module loads no asyncio or
#: HTTP stack.  Each maps to its name in :mod:`repro.serve`.
_GATEWAY_NAMES = {
    "GatewayClient": "GatewayClient",
    "GatewayConfig": "GatewayConfig",
    "GatewayHandle": "GatewayHandle",
    "ServingGateway": "ServingGateway",
    "StreamInterrupted": "StreamInterrupted",
    "launch_gateway": "launch",
}

__all__ = [
    "Budget",
    "DEFAULT_PRECISION_LADDER",
    "STATUSES",
    "BatchItem",
    "GatewayClient",
    "GatewayConfig",
    "GatewayHandle",
    "InjectedFault",
    "OptimizationRun",
    "OptimizerSession",
    "PWLRRPAOptions",
    "PlanSetStore",
    "ProgressEvent",
    "Scenario",
    "ScenarioRegistry",
    "ServingGateway",
    "StoreCounters",
    "StoredPlanSet",
    "StreamInterrupted",
    "WarmStartCache",
    "available_scenarios",
    "decode_plan_set",
    "default_registry",
    "encode_plan_set",
    "family_digest",
    "get_scenario",
    "guarantee_bound",
    "ladder_to",
    "launch_gateway",
    "optimize_query",
    "query_signature",
    "signature_document",
    "signature_features",
    "statistics_digest",
]


def optimize_query(query: Query, scenario: str = "cloud", *,
                   resolution: int = 2,
                   options: PWLRRPAOptions | None = None
                   ) -> OptimizationResult:
    """Optimize one query under a named scenario (no session, no pool).

    Args:
        query: The query to optimize.
        scenario: Registered scenario name (``"cloud"``, ``"approx"``,
            or a custom registration).
        resolution: PWL grid resolution of the cost model.
        options: Backend options.
    """
    return get_scenario(scenario).optimize(query, resolution=resolution,
                                           options=options)


def __getattr__(name: str):
    """Import :mod:`repro.serve` on first access to a gateway name."""
    try:
        target = _GATEWAY_NAMES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from . import serve
    value = getattr(serve, target)
    globals()[name] = value
    return value
