"""Regression tests: vectorized aligned dominance == scalar path, bitwise.

The batch path of :func:`repro.cost.batch_dominance_aligned` must mirror
:meth:`MultiObjectivePWL._dominance_aligned` decision by decision — the
acceptance bar is *bit-identical* Pareto plan sets, not approximately-equal
ones, so these tests compare exact float representations via the JSON
serialization layer.
"""

from __future__ import annotations

import json

import pytest

from repro.api import optimize_query
from repro.core import PWLRRPAOptions, encode_result
from repro.core.serialize import _encode_polytope
from repro.cost import batch_dominance_aligned
from repro.lp import LinearProgramSolver, LPStats
from repro.query import QueryGenerator

#: Options reproducing the seed's scalar pruning path exactly.
SCALAR = PWLRRPAOptions(vectorized_pruning=False, lp_cache_size=0)


def _polys_key(polys):
    """Exact (bitwise) representation of a polytope list."""
    return json.dumps([_encode_polytope(p) for p in polys], sort_keys=True)


def _aligned_costs(seed: int, num_tables: int = 3, shape: str = "chain",
                   num_params: int = 1):
    """Randomized aligned cost functions: every DP entry of a real run."""
    query = QueryGenerator(seed=seed).generate(num_tables, shape, num_params)
    result = optimize_query(query, "cloud", resolution=2)
    costs = [entry.cost for entries in result.dp_table.values()
             for entry in entries]
    assert len(costs) >= 4
    return costs


class TestBatchMatchesScalar:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pairwise_polytopes_identical(self, seed):
        costs = _aligned_costs(seed)
        one = costs[0]
        many = costs[1:8]
        for many_first in (True, False):
            batch = batch_dominance_aligned(
                many, one, LinearProgramSolver(stats=LPStats()),
                many_first=many_first)
            assert batch is not None
            assert len(batch) == len(many)
            solver = LinearProgramSolver(stats=LPStats())
            for cost, polys in zip(many, batch):
                if many_first:
                    scalar = cost.dominance_polytopes(one, solver)
                else:
                    scalar = one.dominance_polytopes(cost, solver)
                assert _polys_key(polys) == _polys_key(scalar)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_relaxed_dominance_identical(self, seed):
        costs = _aligned_costs(seed)
        one = costs[0]
        many = costs[1:6]
        batch = batch_dominance_aligned(
            many, one, LinearProgramSolver(stats=LPStats()), relax=0.15)
        assert batch is not None
        solver = LinearProgramSolver(stats=LPStats())
        for cost, polys in zip(many, batch):
            scalar = cost.dominance_polytopes(one, solver, relax=0.15)
            assert _polys_key(polys) == _polys_key(scalar)

    def test_empty_batch(self):
        costs = _aligned_costs(0)
        solver = LinearProgramSolver(stats=LPStats())
        assert batch_dominance_aligned([], costs[0], solver) == []

    def test_unaligned_falls_back(self):
        chain = _aligned_costs(0)[0]
        other = _aligned_costs(0, num_tables=2)[0]
        solver = LinearProgramSolver(stats=LPStats())
        assert batch_dominance_aligned([other], chain, solver) is None


class TestFullRunsBitIdentical:
    @pytest.mark.parametrize("seed,shape,num_tables,num_params", [
        (0, "chain", 4, 1),
        (1, "star", 4, 1),
        (2, "chain", 3, 2),
        (3, "star", 3, 2),
    ])
    def test_vectorized_run_equals_seed_scalar_run(self, seed, shape,
                                                   num_tables, num_params):
        query = QueryGenerator(seed=seed).generate(num_tables, shape,
                                                   num_params)
        resolution = 1 if num_params == 2 else 2
        fast = optimize_query(query, "cloud", resolution=resolution,
                              options=PWLRRPAOptions())
        slow = optimize_query(query, "cloud", resolution=resolution,
                              options=SCALAR)
        assert (json.dumps(encode_result(fast), sort_keys=True)
                == json.dumps(encode_result(slow), sort_keys=True))
        # Pruning decisions match one for one, not just final plan sets.
        assert fast.stats.plans_created == slow.stats.plans_created
        assert fast.stats.plans_discarded_new == slow.stats.plans_discarded_new
        assert fast.stats.plans_displaced_old == slow.stats.plans_displaced_old
