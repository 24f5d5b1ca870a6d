"""Pluggable scenario registry: named cost-model workloads for sessions.

The paper motivates MPQ with two concrete scenarios — Cloud computing
(time vs. monetary fees, Section 7) and approximate query processing
(time vs. precision loss, Section 1) — and notes the algorithm itself is
generic over the cost model.  This module makes that genericity a
first-class API surface: a *scenario* bundles everything needed to
optimize a query under one cost-model workload (a cost-model factory and
the metric set), and a registry maps scenario names to scenarios so that
:class:`repro.api.OptimizerSession` and the benchmark harness can select
workloads by name (``--scenario approx``).

Built-in scenarios:

* ``"cloud"`` — :class:`repro.cloud.CloudCostModel` (Scenario 1, the
  paper's evaluation workload).
* ``"approx"`` — :class:`repro.approx.ApproxCostModel` (Scenario 2,
  non-additive ``max`` accumulation of precision loss).

Registering a new workload is one call::

    from repro.api import default_registry
    default_registry().register("energy", lambda query, resolution:
                                EnergyModel(query, resolution=resolution),
                                metrics=ENERGY_METRICS)

Worker processes of a pooled session receive the :class:`Scenario`
object itself inside each task payload whenever it pickles (built-in
scenarios and any registration whose factories are module-level
functions do), so scenario resolution does not depend on fork-inherited
registry state and works under the ``spawn`` start method.  Only
unpicklable registrations (e.g. lambdas or closures) fall back to
by-name resolution from the worker's process-global default registry —
register those in a module the workers import.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import Any

from ..core import OptimizationResult, PWLRRPA, PWLRRPAOptions
from ..cost import APPROX_METRICS, CLOUD_METRICS, CostMetric
from ..query import Query


@dataclass(frozen=True)
class Scenario:
    """One named cost-model workload.

    Attributes:
        name: Registry key, e.g. ``"cloud"``.
        cost_model_factory: ``(query, resolution) -> cost model`` — builds
            the cost model object consumed by the backend (must expose the
            protocol of :class:`repro.core.pwl_backend.PWLBackend`'s
            ``cost_model`` argument).
        metrics: The scenario's cost metrics, in reporting order.  Used by
            callers to build selection weights; the cost model remains the
            source of truth during optimization.
        description: One-line human-readable summary.
    """

    name: str
    cost_model_factory: Callable[[Query, int], Any]
    metrics: tuple[CostMetric, ...]
    description: str = ""

    def optimizer(self, resolution: int = 2,
                  options: PWLRRPAOptions | None = None) -> PWLRRPA:
        """Build a ready-to-run optimizer for this scenario."""
        return PWLRRPA(
            cost_model_factory=lambda q: self.cost_model_factory(
                q, resolution),
            options=options)

    def optimize(self, query: Query, resolution: int = 2,
                 options: PWLRRPAOptions | None = None
                 ) -> OptimizationResult:
        """Optimize one query under this scenario."""
        return self.optimizer(resolution=resolution,
                              options=options).optimize(query)

    def start_run(self, query: Query, resolution: int = 2,
                  options: PWLRRPAOptions | None = None, *,
                  precision_ladder=None, seed_plans=None):
        """Create a resumable anytime run for one query.

        Returns a :class:`repro.core.run.OptimizationRun` that can be
        advanced under :class:`repro.core.run.Budget` limits and
        laddered through successively tighter precisions; see
        :mod:`repro.core.run`.  ``seed_plans`` warm-starts the first
        coarse rung from a similar query's cached Pareto set.
        """
        return self.optimizer(resolution=resolution,
                              options=options).start_run(
            query, precision_ladder=precision_ladder,
            seed_plans=seed_plans)


class ScenarioRegistry:
    """Mutable name -> :class:`Scenario` mapping.

    A process-global default registry (:func:`default_registry`, with the
    built-in scenarios) backs the module-level :func:`get_scenario` and
    :func:`available_scenarios`; independent registries can be created
    for tests or embedding.
    """

    def __init__(self) -> None:
        self._scenarios: dict[str, Scenario] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios

    def names(self) -> tuple[str, ...]:
        """Registered scenario names, sorted."""
        return tuple(sorted(self._scenarios))

    def register(self, name: str,
                 cost_model_factory: Callable[[Query, int], Any],
                 metrics: Sequence[CostMetric],
                 description: str = "",
                 replace: bool = False) -> Scenario:
        """Register a scenario and return it.

        Args:
            name: Registry key; must be new unless ``replace`` is set.
            cost_model_factory: ``(query, resolution) -> cost model``.
            metrics: The scenario's cost metrics.
            description: One-line summary.
            replace: Allow overwriting an existing registration.

        Raises:
            ValueError: If ``name`` is taken and ``replace`` is false.
        """
        if name in self._scenarios and not replace:
            raise ValueError(
                f"scenario {name!r} is already registered "
                f"(pass replace=True to overwrite)")
        scenario = Scenario(name=name,
                            cost_model_factory=cost_model_factory,
                            metrics=tuple(metrics),
                            description=description)
        self._scenarios[name] = scenario
        return scenario

    def get(self, name: str) -> Scenario:
        """Look up a scenario.

        Raises:
            KeyError: For unknown names, listing what is available.
        """
        try:
            return self._scenarios[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r}; available: "
                f"{', '.join(self.names()) or '(none)'}") from None


# ----------------------------------------------------------------------
# Built-in scenarios (module-level factories: picklable, fork-friendly)
# ----------------------------------------------------------------------

def _cloud_cost_model(query: Query, resolution: int):
    from ..cloud import CloudCostModel
    return CloudCostModel(query, resolution=resolution)


def _approx_cost_model(query: Query, resolution: int):
    from ..approx import ApproxCostModel
    return ApproxCostModel(query, resolution=resolution)


_DEFAULT = ScenarioRegistry()
_DEFAULT.register(
    "cloud", _cloud_cost_model, CLOUD_METRICS,
    description="Cloud computing: execution time vs. monetary fees "
                "(the paper's Section 7 evaluation scenario)")
_DEFAULT.register(
    "approx", _approx_cost_model, APPROX_METRICS,
    description="Approximate query processing: execution time vs. "
                "result-precision loss (Scenario 2)")


def default_registry() -> ScenarioRegistry:
    """The process-global registry holding the built-in scenarios."""
    return _DEFAULT


def get_scenario(name: str) -> Scenario:
    """Look up a scenario in the default registry."""
    return _DEFAULT.get(name)


def available_scenarios() -> tuple[str, ...]:
    """Names registered in the default registry, sorted."""
    return _DEFAULT.names()
