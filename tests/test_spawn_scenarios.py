"""Spawn-safe scenario shipping to pooled workers.

Pooled sessions used to resolve scenarios by name from the worker's
process-global default registry, which only works when workers *fork*
from an already-configured parent.  These tests run a worker pool under
the ``spawn`` start method — fresh interpreters with no inherited
registry state — and prove that scenarios travel inside the task
payloads (pickled factories), with by-name resolution kept as the
fallback for unpicklable registrations.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.api import OptimizerSession
from repro.cost import CLOUD_METRICS
from repro.query import QueryGenerator
from repro.service.registry import ScenarioRegistry, default_registry


def _spawn_cost_model(query, resolution):
    """Module-level factory: picklable by reference for spawned workers."""
    from repro.cloud import CloudCostModel
    return CloudCostModel(query, resolution=resolution)


def _query():
    return QueryGenerator(seed=0).generate(2, "chain", 1)


def test_spawned_workers_use_shipped_scenario():
    """A scenario known only to the session's registry (not the default
    registry of the freshly spawned workers) optimizes via shipping."""
    registry = ScenarioRegistry()
    registry.register("spawn-only", _spawn_cost_model, CLOUD_METRICS)
    assert "spawn-only" not in default_registry()
    ctx = multiprocessing.get_context("spawn")
    with OptimizerSession("spawn-only", workers=2, registry=registry,
                          mp_context=ctx, warm_start=False) as session:
        item = session.optimize(_query())
    assert item.status == "ok", item.error
    assert item.scenario == "spawn-only"
    assert item.plan_set is not None


def test_builtin_scenarios_ship_under_spawn():
    ctx = multiprocessing.get_context("spawn")
    with OptimizerSession("cloud", workers=2, mp_context=ctx,
                          warm_start=False) as session:
        item = session.optimize(_query())
    assert item.status == "ok", item.error


def test_unpicklable_scenario_falls_back_by_name():
    """Lambda factories cannot ship to pool workers; the worker-side
    by-name fallback is selected.  In-process tasks take the registry's
    scenario as is, so the serial path still works."""
    registry = ScenarioRegistry()
    registry.register(
        "lambda-scenario",
        lambda query, resolution: _spawn_cost_model(query, resolution),
        CLOUD_METRICS)
    with OptimizerSession("lambda-scenario", workers=0,
                          registry=registry) as session:
        item = session.optimize(_query())
        assert item.status == "ok", item.error
    with OptimizerSession("lambda-scenario", workers=2,
                          registry=registry) as session:
        # The pool's shipping decision memoizes the fallback (deciding
        # spawns no pool).
        assert session._shipped_scenario("lambda-scenario") is None
        assert session.pool_spawns == 0


def test_custom_registry_serial_path_needs_no_default_registration():
    registry = ScenarioRegistry()
    registry.register("serial-only", _spawn_cost_model, CLOUD_METRICS)
    assert "serial-only" not in default_registry()
    with OptimizerSession("serial-only", workers=0,
                          registry=registry) as session:
        item = session.optimize(_query())
    assert item.status == "ok", item.error


@pytest.mark.parametrize("workers", [2])
def test_spawned_pool_matches_serial_result(workers):
    """Shipped-scenario pooled results decode to the serial plan set."""
    query = _query()
    with OptimizerSession("cloud", workers=0, warm_start=False) as serial:
        expected = serial.optimize(query)
    ctx = multiprocessing.get_context("spawn")
    with OptimizerSession("cloud", workers=workers, mp_context=ctx,
                          warm_start=False) as pooled:
        got = pooled.optimize(query)
    assert got.status == "ok", got.error
    assert got.signature == expected.signature
    assert len(got.plan_set.entries) == len(expected.plan_set.entries)
    assert (got.plan_set.select([0.4], {"time": 1.0, "fees": 0.2})[1]
            == expected.plan_set.select([0.4], {"time": 1.0, "fees": 0.2})[1])
