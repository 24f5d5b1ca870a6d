"""Regression tests: vectorized aligned dominance == scalar path, bitwise.

The batch path of :func:`repro.cost.batch_dominance_aligned` must mirror
:meth:`MultiObjectivePWL._dominance_aligned` decision by decision — the
acceptance bar is *bit-identical* polytope lists, not approximately-equal
ones, so these tests compare exact float representations via the JSON
serialization layer.
"""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest

from repro.api import optimize_query
from repro.core.serialize import _encode_polytope
from repro.cost import MultiObjectivePWL, batch_dominance_aligned
from repro.cost.vector import _shared_pieces
from repro.geometry import GEOMETRY_EPS, ConvexPolytope
from repro.lp import LinearProgramSolver, LPStats
from repro.query import QueryGenerator


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


# ----------------------------------------------------------------------
# Bulk candidate rows against the chained construction
# ----------------------------------------------------------------------

def reference_batch_dominance(many, one, solver, relax=0.0,
                              many_first=True):
    """The kernel as it built mixed-cell candidates before their rows
    were normalized in bulk: one ``with_halfspace`` call per entering
    row, chained per cell.  Kept test-only as the reference."""
    pieces, verts = _shared_pieces(many, one)
    factor = 1.0 + relax
    w_one, b_one = one.aligned_stack()
    w_many = np.stack([c.aligned_stack()[0] for c in many])
    b_many = np.stack([c.aligned_stack()[1] for c in many])
    if many_first:
        diff_w = w_many - factor * w_one[None]
        diff_b = factor * b_one[None] - b_many
    else:
        diff_w = w_one[None] - factor * w_many
        diff_b = factor * b_many - b_one[None]
    norms = np.linalg.norm(diff_w, axis=-1)
    nontrivial_norm = norms > GEOMETRY_EPS
    safe = np.where(nontrivial_norm, norms, 1.0)
    a_n = diff_w / safe[..., None]
    b_n = diff_b / safe
    trivial = ~nontrivial_norm & (b_n >= -GEOMETRY_EPS)
    infeasible_triv = ~nontrivial_norm & (b_n < -GEOMETRY_EPS)
    slack = np.matmul(verts, a_n[..., None])[..., 0] - b_n[..., None]
    violated_all = np.all(slack > 1e-10, axis=-1)
    holds_all = np.all(slack <= 1e-10, axis=-1)
    metric_infeasible = infeasible_triv | (nontrivial_norm & violated_all)
    metric_holds = trivial | (nontrivial_norm & ~violated_all & holds_all)
    cell_infeasible = np.any(metric_infeasible, axis=1)
    cell_whole = ~cell_infeasible & np.all(
        metric_holds | metric_infeasible, axis=1)
    results, undecided = [], []
    for k in range(len(many)):
        polys = []
        for idx in range(len(pieces)):
            if cell_infeasible[k, idx]:
                continue
            region = pieces[idx].region
            if cell_whole[k, idx]:
                polys.append(region)
                continue
            candidate = region
            for m in range(diff_w.shape[1]):
                if not metric_holds[k, m, idx]:
                    candidate = candidate.with_halfspace(
                        diff_w[k, m, idx], diff_b[k, m, idx])
            if candidate.contains_point(verts[idx].mean(axis=0)):
                polys.append(candidate)
            else:
                polys.append(None)
                undecided.append(candidate)
        results.append(polys)
    decided = iter(zip(undecided, [candidate.is_empty(solver)
                                   for candidate in undecided]))
    resolved = []
    for polys in results:
        kept = []
        for entry in polys:
            if entry is None:
                entry, is_empty = next(decided)
                if is_empty:
                    continue
            kept.append(entry)
        resolved.append(kept)
    return resolved


def _with_metrics(cost: MultiObjectivePWL, shifts: dict | None = None,
                  scales: dict | None = None) -> MultiObjectivePWL:
    """``cost`` with per-metric constants added or factors applied; the
    partition is kept."""
    shifts, scales = shifts or {}, scales or {}
    return MultiObjectivePWL({
        name: f.scale(scales.get(name, 1.0)).add_constant(
            shifts.get(name, 0.0))
        for name, f in cost.components.items()})


#: ``(seed, tables, shape, parameters)`` of the queries the batches come
#: from.
BATCH_SOURCES = [(7, 3, "chain", 1), (3, 3, "star", 1), (7, 3, "chain", 2)]


@functools.lru_cache(maxsize=None)
def _batch(source):
    """A seeded aligned batch: the plans of the query's most populated
    table set (their costs cross inside cells, so many cells are
    mixed), the same plans with one metric scaled (so a mixed cell's
    metrics give distinct rows, not one row twice), and costs whose
    dominance rows are zero rows (``one`` itself; ``one`` shifted up in
    one metric and down in another, which gives trivially satisfied and
    trivially infeasible rows in either direction)."""
    seed, tables, shape, params = source
    query = QueryGenerator(seed=seed).generate(tables, shape, params)
    result = optimize_query(query, "cloud",
                            resolution=2 if params == 1 else 1)
    entries = max(result.dp_table.values(), key=len)
    one, *others = [entry.cost for entry in entries]
    first, second = one.metric_names[:2]
    scaled = [_with_metrics(cost, scales={first: 1.1}) for cost in others]
    zero_rows = [one, _with_metrics(one, shifts={first: 1.0, second: -1.0}),
                 _with_metrics(one, shifts={first: -1.0})]
    return one, others + scaled + zero_rows


class TestBulkCandidateRows:
    @pytest.mark.parametrize("source", BATCH_SOURCES,
                             ids=lambda s: f"{s[2]}{s[1]}-{s[3]}p-seed{s[0]}")
    @pytest.mark.parametrize("many_first", [True, False])
    @pytest.mark.parametrize("relax", [0.0, 0.25])
    def test_candidates_equal_chained_construction(self, source,
                                                   many_first, relax):
        one, many = _batch(source)
        stats, reference_stats = LPStats(), LPStats()
        batch = batch_dominance_aligned(
            many, one, LinearProgramSolver(stats=stats), relax=relax,
            many_first=many_first)
        reference = reference_batch_dominance(
            many, one, LinearProgramSolver(stats=reference_stats),
            relax=relax, many_first=many_first)
        assert batch is not None
        assert len(batch) == len(reference) == len(many)
        built = 0
        for polys, expected in zip(batch, reference):
            assert len(polys) == len(expected)
            for poly, want in zip(polys, expected):
                if want.vertex_hint is not None:  # a whole cell
                    assert poly is want
                    continue
                built += 1
                assert poly.vertex_hint is None
                assert poly._a.shape == want._a.shape
                assert poly._a.tobytes() == want._a.tobytes()
                assert poly._b.tobytes() == want._b.tobytes()
                assert poly._keys == want._keys
                assert (poly.has_trivially_infeasible()
                        == want.has_trivially_infeasible())
                assert poly.cell_tag == want.cell_tag
        assert built > 0  # the batch has mixed cells
        assert stats.solved == reference_stats.solved
        assert stats.by_purpose() == reference_stats.by_purpose()


# ----------------------------------------------------------------------
# The 1-parameter float kernel against the array kernel
# ----------------------------------------------------------------------

def _run_kernel(kernel, many, one, relax, many_first):
    """One kernel on a fresh solver: its polytope lists, LP stats and
    the number of polytopes it built."""
    __, regions, verts = one._cells()
    stats = LPStats()
    builds = []
    init = ConvexPolytope.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    ConvexPolytope.__init__ = counted
    try:
        polys = kernel(many, one, regions, verts,
                       LinearProgramSolver(stats=stats), 1.0 + relax,
                       many_first)
    finally:
        ConvexPolytope.__init__ = init
    return polys, stats, len(builds)


class TestOneParameterKernel:
    """``_batch_dominance_1d`` repeats the array kernel's operations in
    floats; on 1-parameter batches the two must agree bit for bit:
    polytope rows, keys, flags and tags, whole cells by identity, and
    the emptiness LPs they solve."""

    @pytest.mark.parametrize("source", [s for s in BATCH_SOURCES
                                        if s[3] == 1],
                             ids=lambda s: f"{s[2]}{s[1]}-seed{s[0]}")
    @pytest.mark.parametrize("many_first", [True, False])
    @pytest.mark.parametrize("relax", [0.0, 0.25])
    @pytest.mark.parametrize("size", [1, 9, None])
    def test_equals_array_kernel(self, source, many_first, relax, size):
        from repro.cost.vector import (_batch_dominance_1d,
                                       _batch_dominance_arrays)
        one, many = _batch(source)
        assert one.dim == 1
        # The batch ends with its zero-row costs; sized batches lead
        # with them.
        many = many[-3:] + many[:-3]
        if size == 1:
            batches = [[cost] for cost in many[:8]]
        else:
            batches = [many[:size]]
        for batch in batches:
            floats, float_stats, float_builds = _run_kernel(
                _batch_dominance_1d, batch, one, relax, many_first)
            arrays, array_stats, array_builds = _run_kernel(
                _batch_dominance_arrays, batch, one, relax, many_first)
            assert len(floats) == len(arrays) == len(batch)
            for polys, expected in zip(floats, arrays):
                assert len(polys) == len(expected)
                for poly, want in zip(polys, expected):
                    if want.vertex_hint is not None:  # a whole cell
                        assert poly is want
                        continue
                    assert poly._lhs == want._lhs
                    assert poly._a.tobytes() == want._a.tobytes()
                    assert poly._b.tobytes() == want._b.tobytes()
                    assert poly._keys == want._keys
                    assert (poly.has_trivially_infeasible()
                            == want.has_trivially_infeasible())
                    assert poly.cell_tag == want.cell_tag
            assert float_stats.solved == array_stats.solved
            assert float_stats.by_purpose() == array_stats.by_purpose()
            assert float_builds == array_builds

    def test_batches_cover_every_decision(self):
        """The seeded batches reach each outcome of the classification:
        whole cells, cells without dominance, candidates, and emptiness
        LPs for candidates their centroid leaves undecided."""
        from repro.cost.vector import _batch_dominance_arrays
        outcomes = set()
        for source in [s for s in BATCH_SOURCES if s[3] == 1]:
            one, many = _batch(source)
            for many_first in (True, False):
                polys, stats, __ = _run_kernel(_batch_dominance_arrays,
                                               many, one, 0.0, many_first)
                cells = len(one._cells()[1])
                for found in polys:
                    outcomes.add("whole" if any(
                        p.vertex_hint is not None for p in found)
                        else "none" if not found else "candidate")
                    outcomes.add("some empty" if len(found) < cells
                                 else "all live")
                if stats.solved:
                    outcomes.add("emptiness LP")
        assert outcomes >= {"whole", "none", "candidate", "some empty",
                            "emptiness LP"}
