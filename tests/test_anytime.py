"""Tests for the resumable anytime engine (repro.core.run).

Covers the tentpole guarantees of the anytime redesign:

* exactness — the final ladder rung at alpha = 0 produces bit-identical
  plan sets to the classic exact path under both built-in scenarios;
* resumability — a run advanced step by step, or exhausted under a
  budget and resumed with more, reaches the identical exact result;
* guarantee accounting — an interrupted run reports an alpha such that
  every possible plan is covered by a returned plan within the
  ``(1 + alpha) ** levels`` bound of alpha-dominance pruning;
* progress events — rungs tighten monotonically and carry consistent
  counters.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cloud import CloudCostModel
from repro.core import (Budget, PWLRRPA, PWLRRPAOptions, RUN_COMPLETED,
                        RUN_EXHAUSTED, encode_result, guarantee_bound,
                        ladder_to, validate_ladder)
from repro.core.run import DEFAULT_PRECISION_LADDER
from repro.query import QueryGenerator
from repro.service.registry import get_scenario

from tests.helpers import enumerate_all_plans, pwl_plan_cost_at


def finished(run) -> bool:
    """Every rung of the run's ladder has completed."""
    return len(run.completed) == len(run.ladder)


def _doc_key(result) -> str:
    return json.dumps(encode_result(result), sort_keys=True)


def make_query(seed: int = 0, num_tables: int = 4):
    return QueryGenerator(seed=seed).generate(num_tables, "chain", 1)


class TestBudgetValidation:
    def test_negative_limits_rejected(self):
        for kwargs in ({"seconds": -1.0}, {"lps": -1}, {"steps": -1}):
            with pytest.raises(ValueError):
                Budget(**kwargs)

    def test_unlimited_and_roundtrip(self):
        assert Budget().as_dict() == {"seconds": None, "lps": None,
                                      "steps": None}
        budget = Budget(seconds=1.5, lps=10)
        assert Budget.from_dict(budget.as_dict()) == budget
        assert Budget.from_dict(None) is None


class TestNaNRejected:
    """``x < 0`` is false for NaN; every anytime validator refuses it."""

    NAN = float("nan")

    def test_ladder(self):
        with pytest.raises(ValueError, match=">= 0"):
            validate_ladder((0.5, self.NAN))

    def test_ladder_to(self):
        with pytest.raises(ValueError, match=">= 0"):
            ladder_to(self.NAN)

    @pytest.mark.parametrize("limit", ["seconds", "lps", "steps"])
    def test_budget(self, limit):
        with pytest.raises(ValueError, match=">= 0"):
            Budget(**{limit: self.NAN})

    def test_options(self):
        with pytest.raises(ValueError, match=">= 0"):
            PWLRRPAOptions(approximation_factor=self.NAN)


class TestLadderValidation:
    def test_must_be_strictly_decreasing(self):
        with pytest.raises(ValueError, match="decreasing"):
            validate_ladder((0.2, 0.5))
        with pytest.raises(ValueError, match="decreasing"):
            validate_ladder((0.2, 0.2))
        with pytest.raises(ValueError, match="empty"):
            validate_ladder(())
        with pytest.raises(ValueError, match=">= 0"):
            validate_ladder((0.5, -0.1))
        assert validate_ladder((0.5, 0.0)) == (0.5, 0.0)

    def test_ladder_to_truncates_default(self):
        assert ladder_to(0.0) == DEFAULT_PRECISION_LADDER
        assert ladder_to(0.2) == (0.5, 0.2)
        assert ladder_to(0.3) == (0.5, 0.3)
        with pytest.raises(ValueError):
            ladder_to(-0.1)


@pytest.fixture(scope="module")
def query():
    return make_query(seed=11)


@pytest.fixture(scope="module", params=["cloud", "approx"])
def scenario_name(request):
    return request.param


class TestExactEquivalence:
    """Acceptance: the alpha=0 rung is bit-identical to the exact path."""

    def test_final_rung_bit_identical(self, query, scenario_name):
        scenario = get_scenario(scenario_name)
        exact = scenario.optimize(query)
        run = scenario.start_run(query,
                                 precision_ladder=(0.5, 0.2, 0.0))
        assert run.run() == RUN_COMPLETED
        assert finished(run)
        final = run.result()
        assert final.achieved_alpha == 0.0
        assert final.guarantee == 1.0
        assert _doc_key(final) == _doc_key(exact)

    def test_single_rung_run_matches_monolithic(self, query):
        """RRPA.optimize is now a wrapper over the engine; driving the
        engine by hand step by step gives the same result."""
        optimizer = PWLRRPA(
            cost_model_factory=lambda q: CloudCostModel(q, resolution=2))
        monolithic = optimizer.optimize(query)
        run = optimizer.start_run(query)
        steps = 0
        while not finished(run):
            run.step()
            steps += 1
        assert steps == len(run.events) - 1  # rung_started + 1/step
        assert _doc_key(run.result()) == _doc_key(monolithic)


class TestResumption:
    def test_step_budget_pause_resume(self, query):
        scenario = get_scenario("cloud")
        exact = scenario.optimize(query)
        run = scenario.start_run(query, precision_ladder=(0.5, 0.0))
        statuses = []
        while not finished(run):
            statuses.append(run.run(Budget(steps=2)))
        assert statuses[-1] == RUN_COMPLETED
        assert RUN_EXHAUSTED in statuses[:-1]
        assert _doc_key(run.result()) == _doc_key(exact)

    def test_exhausted_run_resumed_reaches_exact(self, query,
                                                 scenario_name):
        """Satellite: budget exhaustion mid-run, then resume to exact."""
        scenario = get_scenario(scenario_name)
        exact = scenario.optimize(query)
        run = scenario.start_run(query, precision_ladder=ladder_to(0.0))
        # Exhaust a small LP budget somewhere mid-ladder.
        status = run.run(Budget(lps=40))
        assert status == RUN_EXHAUSTED
        assert not finished(run)
        # Resume with unlimited budget: identical exact result.
        assert run.run() == RUN_COMPLETED
        assert run.result().achieved_alpha == 0.0
        assert _doc_key(run.result()) == _doc_key(exact)

    def test_abandoned_iteration_reports_no_status(self):
        """An iteration closed after the coarse rung has not completed
        the run: its status stays unset until a later call ends."""
        run = get_scenario("cloud").start_run(
            make_query(seed=0, num_tables=3), precision_ladder=(0.5, 0.0))
        events = run.iter_run()
        for event in events:
            if event.kind == "rung_completed":
                break
        events.close()
        assert run.last_status is None
        assert not finished(run)
        assert run.achieved_alpha == 0.5
        assert run.run() == RUN_COMPLETED
        assert run.last_status == RUN_COMPLETED
        assert run.achieved_alpha == 0.0


class TestGuaranteeAccounting:
    def test_interrupted_run_guarantee_is_valid(self):
        """Acceptance: every returned plan set of an interrupted run is
        within its reported (1+alpha)-style bound of Pareto-optimal."""
        query = make_query(seed=101)
        model = CloudCostModel(query, resolution=2)
        optimizer = PWLRRPA()
        run = optimizer.start_run_with_model(
            query, model, precision_ladder=(0.5, 0.25, 0.0))
        # Interrupt after the second rung (alpha = 0.25) completes.
        while len(run.completed) < 2:
            run.step()
        assert run.achieved_alpha == 0.25
        bound = run.guarantee
        assert bound == guarantee_bound(0.25, query.num_tables)
        entries = run.result().entries
        all_plans = enumerate_all_plans(query, model)
        for plan in all_plans[::7]:  # sample the space, keep test fast
            for x in (np.array([v]) for v in (0.1, 0.5, 0.9)):
                cost = pwl_plan_cost_at(model, plan, x)
                assert any(
                    all(e.cost.evaluate(x)[m] <= cost[m] * bound + 1e-9
                        for m in cost)
                    for e in entries)

    def test_no_result_before_first_rung(self, query):
        run = get_scenario("cloud").start_run(
            query, precision_ladder=(0.5, 0.0))
        assert run.run(Budget(steps=1)) == RUN_EXHAUSTED
        assert not run.completed
        assert run.result() is None
        assert run.achieved_alpha is None
        assert run.guarantee is None


class TestProgressEvents:
    def test_rungs_tighten_and_counters_monotone(self, query):
        run = get_scenario("cloud").start_run(
            query, precision_ladder=(0.5, 0.2, 0.0))
        seen = list(run.iter_run())
        assert run.last_status == RUN_COMPLETED
        assert seen == run.events
        rungs = [e for e in run.events if e.kind == "rung_completed"]
        assert [e.alpha for e in rungs] == [0.5, 0.2, 0.0]
        assert [e.guarantee for e in rungs] == [
            guarantee_bound(a, query.num_tables) for a in (0.5, 0.2, 0.0)]
        # Coarser rungs keep (weakly) fewer plans; LP counters grow.
        counts = [e.plan_count for e in rungs]
        assert counts == sorted(counts)
        lps = [e.lps_solved for e in run.events]
        assert lps == sorted(lps)
        # Events survive a dict round trip (the session's event
        # documents carry them that way).
        for event in run.events:
            doc = event.as_dict()
            assert type(event).from_dict(doc).as_dict() == doc

    def test_warm_start_reuses_cost_functions(self, query):
        """Rung N+1 reuses the cost objects rung N built (same object)."""
        run = get_scenario("cloud").start_run(
            query, precision_ladder=(0.5, 0.0))
        run.run()
        coarse, exact = run.completed
        coarse_costs = {id(e.cost) for entries
                        in coarse.result.dp_table.values()
                        for e in entries}
        shared = [e for entries in exact.result.dp_table.values()
                  for e in entries if id(e.cost) in coarse_costs]
        assert shared  # warm start actually kicked in


class TestBackendSupport:
    def test_ladder_requires_alpha_support(self, query):
        """Multi-rung ladders need set_approximation_factor; the generic
        grid backend (exact-only) rejects them."""
        from repro.core import GridBackend, RRPA

        backend = GridBackend(query, CloudCostModel(query, resolution=2))
        assert RRPA(backend).optimize(query).entries  # exact path works
        run = RRPA(backend).start_run(query, precision_ladder=(0.5, 0.0))
        with pytest.raises(NotImplementedError, match="ladder"):
            run.run()
