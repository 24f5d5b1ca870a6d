"""Multi-objective PWL cost functions and the ``Dom`` operation.

The ``Multi-Obj. PWL Cost Func.`` entity of Figure 9 composes one
single-objective PWL function per cost metric.  This module implements it
together with the second elementary operation of Algorithm 3: ``Dom(p1,
p2)`` — the set of convex polytopes covering the parameter-space region in
which one plan dominates another (better-or-equal according to *every*
metric).

Two execution paths exist, as for addition:

* **Aligned path** — both functions carry the same partition token, so the
  linear regions coincide piece-by-piece.  Within each shared region the
  per-metric dominance condition is one halfspace; the dominance region in
  that cell is the cell intersected with all ``nM`` halfspaces (one
  polytope per cell).
* **General path** — the paper's pseudo-code verbatim: per metric, iterate
  over all piece pairs, intersect their regions and add the halfspace where
  the first function is no larger; finally build all cross-metric
  intersections and keep the non-empty ones.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from ..errors import DimensionMismatchError
from ..geometry import GEOMETRY_EPS, ConvexPolytope, LinearConstraint
from ..geometry.polytope import _halfspace_1d
from ..lp import LinearProgramSolver
from .linear import LinearPiece
from .pwl import PiecewiseLinearFunction


class MultiObjectivePWL:
    """A vector-valued PWL cost function ``c : X -> R^{nM}``.

    Args:
        components: Mapping from metric name to the single-objective PWL
            function for that metric (the ``comps`` relationship of
            Figure 9).  All components must share the parameter-space
            dimensionality.
    """

    __slots__ = ("components", "dim", "_names", "_stack_cache",
                 "_float_cache", "_cells_cache")

    def __init__(self, components: Mapping[str, PiecewiseLinearFunction]
                 ) -> None:
        if not components:
            raise ValueError("need at least one cost metric")
        self.components: dict[str, PiecewiseLinearFunction] = dict(components)
        dims = {f.dim for f in self.components.values()}
        if len(dims) != 1:
            raise DimensionMismatchError(
                f"components live in different dims: {dims}")
        self.dim = dims.pop()
        self._names = tuple(sorted(self.components))
        self._stack_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._float_cache: tuple[list, list] | None = None
        self._cells_cache: tuple | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def constant(space: ConvexPolytope,
                 values: Mapping[str, float]) -> MultiObjectivePWL:
        """Constant cost vector on ``space``."""
        return MultiObjectivePWL({
            name: PiecewiseLinearFunction.constant(space, value)
            for name, value in values.items()})

    @staticmethod
    def affine(space: ConvexPolytope,
               weights: Mapping[str, Sequence[float]],
               bases: Mapping[str, float]) -> MultiObjectivePWL:
        """Affine cost vector ``w_m @ x + b_m`` per metric on ``space``."""
        if set(weights) != set(bases):
            raise ValueError("weights and bases must cover the same metrics")
        return MultiObjectivePWL({
            name: PiecewiseLinearFunction.affine(space, weights[name],
                                                 bases[name])
            for name in weights})

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def metric_names(self) -> tuple[str, ...]:
        """Metric names in deterministic (sorted) order."""
        return self._names

    def component(self, metric: str) -> PiecewiseLinearFunction:
        """Return the single-objective function for ``metric``."""
        return self.components[metric]

    def evaluate(self, x) -> dict[str, float]:
        """Evaluate all metrics at ``x``."""
        return {name: f.evaluate(x) for name, f in self.components.items()}

    def aligned_stack(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-metric piece coefficients as stacked arrays (cached).

        Returns ``(W, B)`` with ``W`` of shape ``(nM, nP, dim)`` and ``B``
        of shape ``(nM, nP)``, metrics ordered by :attr:`metric_names`.
        Only meaningful for functions whose components share one partition
        (equal piece counts); raises ``ValueError`` otherwise.
        """
        if self._stack_cache is not None:
            return self._stack_cache
        pieces = self._aligned_pieces()
        w = np.array([[np.asarray(p.w, dtype=float) for p in metric]
                      for metric in pieces])
        b = np.array([[p.b for p in metric] for metric in pieces],
                     dtype=float)
        self._stack_cache = (w, b)
        return self._stack_cache

    def _aligned_floats(self) -> tuple[list, list]:
        """:meth:`aligned_stack` of a 1-parameter function as Python
        floats (cached): ``W[metric][piece]`` and ``B[metric][piece]``,
        the values the arrays hold."""
        if self._float_cache is None:
            pieces = self._aligned_pieces()
            self._float_cache = (
                [[float(p.w[0]) for p in metric] for metric in pieces],
                [[float(p.b) for p in metric] for metric in pieces])
        return self._float_cache

    def _aligned_pieces(self) -> list:
        """Every metric's pieces, in :attr:`metric_names` order.

        Raises:
            ValueError: When the piece counts differ between metrics.
        """
        pieces = [self.components[m].pieces for m in self._names]
        if len({len(metric) for metric in pieces}) != 1:
            raise ValueError("components have differing piece counts")
        return pieces

    def _cells(self) -> tuple:
        """``(signature, regions, vertices)`` of the shared partition
        (cached).

        ``signature`` holds every metric's name, partition token and
        piece count, or is ``None`` when a component has no token.
        ``regions`` are the first metric's piece regions, and
        ``vertices`` their vertex hints stacked as ``(nP, nV, dim)``,
        or ``None`` when a region has no hint or the hints differ in
        shape.
        """
        if self._cells_cache is None:
            components = [self.components[m] for m in self._names]
            signature = None
            if all(f.partition_token is not None for f in components):
                signature = tuple((m, f.partition_token, len(f.pieces))
                                  for m, f in zip(self._names, components))
            regions = tuple(p.region for p in components[0].pieces)
            hints = [region.vertex_hint for region in regions]
            vertices = None
            if all(hint is not None and hint.shape == hints[0].shape
                   for hint in hints):
                vertices = np.stack(hints)
            self._cells_cache = (signature, regions, vertices)
        return self._cells_cache

    def same_partition(self, other: MultiObjectivePWL) -> bool:
        """``True`` when every pair of matching components is aligned:
        the same metrics, each with the same (non-``None``) partition
        token and piece count."""
        signature = self._cells()[0]
        return signature is not None and signature == other._cells()[0]

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def add(self, other: MultiObjectivePWL,
            solver: LinearProgramSolver | None = None,
            accumulators: Mapping[str, str] | None = None
            ) -> MultiObjectivePWL:
        """Combine with another cost function metric by metric.

        Args:
            other: Cost function with the same metric set.
            solver: Needed for unaligned partitions or max-accumulation.
            accumulators: Per-metric ``"sum"`` or ``"max"``; defaults to
                sum for every metric.
        """
        if set(self.components) != set(other.components):
            raise ValueError("metric sets differ")
        result = {}
        for name, mine in self.components.items():
            how = (accumulators or {}).get(name, "sum")
            if how == "sum":
                result[name] = mine.add(other.components[name], solver)
            elif how == "max":
                if solver is None:
                    raise ValueError("solver required for max accumulation")
                result[name] = mine.maximum(other.components[name], solver)
            else:
                raise ValueError(f"unknown accumulator {how!r}")
        return MultiObjectivePWL(result)

    # ------------------------------------------------------------------
    # Dominance (Algorithm 3, function Dom)
    # ------------------------------------------------------------------

    def dominance_polytopes(self, other: MultiObjectivePWL,
                            solver: LinearProgramSolver,
                            relax: float = 0.0) -> list[ConvexPolytope]:
        """Return convex polytopes covering ``Dom(self, other)``.

        ``Dom(p1, p2)`` is the parameter-space region where ``p1`` has
        better-or-equal cost than ``p2`` according to *every* metric
        (Section 2).  Theorem 2 guarantees the region is a convex polytope
        within each linear region; the returned list is the union over the
        linear-region partition.

        Functions on one shared partition take the aligned path, which
        solves an emptiness LP only for a cell its vertices and centroid
        leave undecided.  Any other pair takes the paper's general loop,
        one emptiness LP per piece-pair region, dominance candidate and
        cross-metric intersection.

        Args:
            other: The plan cost function to compare against.
            solver: LP solver (each emptiness filter counts one LP, as in
                the paper's implementation).
            relax: Approximation factor ``alpha >= 0``: computes the
                *alpha-dominance* region where
                ``c(self) <= (1 + alpha) * c(other)`` per metric.  With
                ``alpha > 0`` pruning becomes more aggressive and the
                plan set shrinks at the price of a bounded cost regret —
                the approximation-scheme idea of the paper's companion
                work (citation [31], Trummer & Koch SIGMOD 2014).
                Requires non-negative cost functions (true for all cost
                metrics in this library).
        """
        if set(self.components) != set(other.components):
            raise ValueError("metric sets differ")
        if relax < 0:
            raise ValueError("approximation factor must be >= 0")
        if self.same_partition(other):
            return self._dominance_aligned(other, solver, relax=relax)
        return self._dominance_general(other, solver, relax=relax)

    def _dominance_aligned(self, other: MultiObjectivePWL,
                           solver: LinearProgramSolver,
                           relax: float = 0.0) -> list[ConvexPolytope]:
        """Aligned fast path: one candidate polytope per shared region.

        When a region carries a vertex hint (simplicial grid cells do),
        dominance is first decided at the vertices: a linear inequality
        that holds at every vertex holds on the whole cell, and one that
        fails at every vertex fails on the whole cell.  Only genuinely
        mixed cells fall back to an emptiness LP.
        """
        names = self.metric_names
        factor = 1.0 + relax
        first = self.components[names[0]]
        polys: list[ConvexPolytope] = []
        for idx in range(len(first.pieces)):
            region = first.pieces[idx].region
            verts = region.vertex_hint
            candidate = region
            feasible = True
            whole_cell = True
            for name in names:
                p1: LinearPiece = self.components[name].pieces[idx]
                p2: LinearPiece = other.components[name].pieces[idx]
                diff_w = np.asarray(p1.w) - factor * np.asarray(p2.w)
                diff_b = factor * p2.b - p1.b
                constraint = LinearConstraint.make(diff_w, diff_b)
                if constraint.is_infeasible_trivial():
                    feasible = False
                    break
                if constraint.is_trivial():
                    continue
                if verts is not None:
                    slack = verts @ constraint.a - constraint.b
                    if np.all(slack > 1e-10):
                        # Violated at every vertex => empty on the cell.
                        feasible = False
                        break
                    if np.all(slack <= 1e-10):
                        # Satisfied at every vertex => holds everywhere.
                        continue
                whole_cell = False
                candidate = candidate.with_constraint(constraint)
            if not feasible:
                continue
            if whole_cell:
                polys.append(region)
            elif verts is not None and candidate.contains_point(
                    verts.mean(axis=0)):
                # The cell centroid satisfies all constraints: non-empty
                # without an LP.
                polys.append(candidate)
            elif not candidate.is_empty(solver):
                # Genuinely mixed cell: its emptiness LP decides.
                polys.append(candidate)
        return polys

    def _dominance_general(self, other: MultiObjectivePWL,
                           solver: LinearProgramSolver,
                           relax: float = 0.0) -> list[ConvexPolytope]:
        """The paper's general ``Dom``: per-metric polytopes, then products."""
        factor = 1.0 + relax
        per_metric: list[list[ConvexPolytope]] = []
        for name in self.metric_names:
            f1 = self.components[name]
            f2 = other.components[name]
            polys_m: list[ConvexPolytope] = []
            for p1 in f1.pieces:
                for p2 in f2.pieces:
                    region = p1.region.intersect(p2.region)
                    if region.is_empty(solver):
                        continue
                    diff_w = np.asarray(p1.w) - factor * np.asarray(p2.w)
                    diff_b = factor * p2.b - p1.b
                    constraint = LinearConstraint.make(diff_w, diff_b)
                    if constraint.is_infeasible_trivial():
                        continue
                    dom = (region if constraint.is_trivial()
                           else region.with_constraint(constraint))
                    if not dom.is_empty(solver):
                        polys_m.append(dom)
            if not polys_m:
                return []  # dominated nowhere according to this metric
            per_metric.append(polys_m)
        # Combine results from different metrics (cross intersections).
        combined = per_metric[0]
        for polys_m in per_metric[1:]:
            next_combined = []
            for left in combined:
                for right in polys_m:
                    candidate = left.intersect(right)
                    if not candidate.is_empty(solver):
                        next_combined.append(candidate)
            combined = next_combined
            if not combined:
                return []
        return combined

    def dominates_at(self, other: MultiObjectivePWL, x,
                     tol: float = 1e-9) -> bool:
        """Pointwise dominance test at parameter vector ``x``."""
        mine = self.evaluate(x)
        theirs = other.evaluate(x)
        return all(mine[m] <= theirs[m] + tol for m in self.components)

    def strictly_dominates_at(self, other: MultiObjectivePWL, x,
                              tol: float = 1e-9) -> bool:
        """Pointwise strict dominance (dominates and differs) at ``x``."""
        mine = self.evaluate(x)
        theirs = other.evaluate(x)
        if not all(mine[m] <= theirs[m] + tol for m in self.components):
            return False
        return any(mine[m] < theirs[m] - tol for m in self.components)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{name}:{f.num_pieces}p"
                          for name, f in sorted(self.components.items()))
        return f"MultiObjectivePWL({parts})"


# ----------------------------------------------------------------------
# Vectorized batch dominance (aligned partitions)
# ----------------------------------------------------------------------

def _shared_pieces(many: Sequence[MultiObjectivePWL],
                   one: MultiObjectivePWL):
    """Validate that all functions share piece regions with vertex hints.

    Returns ``(pieces, verts)`` — the shared piece list (of the first
    metric) and the stacked vertex array of shape ``(nP, nV, dim)`` — or
    ``None`` when any precondition for the vectorized path fails.  Each
    function's partition signature and regions are computed once
    (:meth:`MultiObjectivePWL._cells`), so an incumbent costs one
    comparison per call.
    """
    signature, regions, verts = one._cells()
    if signature is None or verts is None:
        return None
    for cost in many:
        theirs, their_regions, __ = cost._cells()
        # The aligned path only ever reads regions of the first
        # metric's pieces; identity (polytopes compare by identity)
        # guarantees identical output polytopes (including vertex hints
        # and cell tags).
        if theirs != signature or their_regions != regions:
            return None
    return one.components[one.metric_names[0]].pieces, verts


def batch_dominance_aligned(many: Sequence[MultiObjectivePWL],
                            one: MultiObjectivePWL,
                            solver: LinearProgramSolver,
                            relax: float = 0.0,
                            many_first: bool = True
                            ) -> list[list[ConvexPolytope]] | None:
    """Vectorized ``Dom`` between a batch of aligned costs and one cost.

    Computes ``Dom(many[k], one)`` for every ``k`` when ``many_first`` is
    true, else ``Dom(one, many[k])`` — the two directions RRPA's pruning
    procedure needs when inserting one new plan against all incumbents.
    The per-cell, per-metric dominance constraints of the aligned path are
    classified for the *whole batch* in one array pass over the shared
    partition's vertex hints; only genuinely mixed cells fall back to
    polytope assembly (and, rarely, an emptiness LP), exactly mirroring
    :meth:`MultiObjectivePWL._dominance_aligned` decision by decision so
    the produced polytope lists are identical to the scalar path's.

    With one parameter the batch runs in Python floats instead
    (:func:`_batch_dominance_1d`), with the same results bit for bit.

    Returns ``None`` when the batch does not satisfy the aligned-path
    preconditions (callers then fall back to pairwise ``Dom``).

    Args:
        many: Batch of cost functions, all aligned with ``one``.
        one: The single cost function compared against the whole batch.
        solver: LP solver for mixed-cell emptiness checks.
        relax: Alpha-dominance approximation factor (``>= 0``).
        many_first: Direction of the comparison (see above).
    """
    if relax < 0:
        raise ValueError("approximation factor must be >= 0")
    if not many:
        return []
    for cost in many:
        if cost.metric_names != one.metric_names:
            raise ValueError("metric sets differ")
    shared = _shared_pieces(many, one)
    if shared is None:
        return None
    verts = shared[1]
    # Identity-checked: p1's region IS the shared region.
    regions = one._cells()[1]
    kernel = _batch_dominance_1d if one.dim == 1 else _batch_dominance_arrays
    return kernel(many, one, regions, verts, solver, 1.0 + relax, many_first)


def _batch_dominance_arrays(many: Sequence[MultiObjectivePWL],
                            one: MultiObjectivePWL,
                            regions: tuple, verts: np.ndarray,
                            solver: LinearProgramSolver, factor: float,
                            many_first: bool) -> list[list[ConvexPolytope]]:
    """:func:`batch_dominance_aligned` in NumPy arrays, for two or more
    parameters (and the 1-D kernel's test reference)."""
    w_one, b_one = one.aligned_stack()                    # (m, p, d) / (m, p)
    w_many = np.stack([c.aligned_stack()[0] for c in many])  # (k, m, p, d)
    b_many = np.stack([c.aligned_stack()[1] for c in many])  # (k, m, p)
    if many_first:
        diff_w = w_many - factor * w_one[None]
        diff_b = factor * b_one[None] - b_many
    else:
        diff_w = w_one[None] - factor * w_many
        diff_b = factor * b_many - b_one[None]

    # Normalize as LinearConstraint.make does, up to the last bit of
    # the norm (norm(axis=-1) sums the squares in another order than
    # normalize_rows).  These rows only classify cells; the rows that
    # enter polytopes below go through normalize_rows.
    norms = np.linalg.norm(diff_w, axis=-1)               # (k, m, p)
    nontrivial_norm = norms > GEOMETRY_EPS
    safe = np.where(nontrivial_norm, norms, 1.0)
    a_n = diff_w / safe[..., None]
    b_n = diff_b / safe
    # Degenerate zero-coefficient constraints: full space or empty set.
    trivial = ~nontrivial_norm & (b_n >= -GEOMETRY_EPS)
    infeasible_triv = ~nontrivial_norm & (b_n < -GEOMETRY_EPS)

    # Vertex slacks of every constraint on its cell: (k, m, p, v).
    slack = np.matmul(verts, a_n[..., None])[..., 0] - b_n[..., None]
    violated_all = (slack > 1e-10).all(axis=-1)
    holds_all = (slack <= 1e-10).all(axis=-1)

    metric_infeasible = infeasible_triv | (nontrivial_norm & violated_all)
    metric_holds = trivial | (nontrivial_norm & ~violated_all & holds_all)
    cell_infeasible = metric_infeasible.any(axis=1)       # (k, p)
    cell_whole = ~cell_infeasible & (
        metric_holds | metric_infeasible).all(axis=1)
    needs_work = ~cell_infeasible & ~cell_whole

    # Each mixed cell's candidate is its region plus the rows of the
    # metrics that do not hold on the whole cell, added in metric order.
    # All candidates' rows, ordered by batch member, cell and metric,
    # are normalized and keyed in one pass.
    work_k, work_idx = np.nonzero(needs_work)
    entering = ~metric_holds[work_k, :, work_idx]         # (cells, m)
    owner, metric = np.nonzero(entering)
    picks = (work_k[owner], metric, work_idx[owner])
    work_idx = work_idx.tolist()
    candidates = iter(ConvexPolytope.with_halfspaces_many(
        [regions[idx] for idx in work_idx], diff_w[picks], diff_b[picks],
        entering.sum(axis=1).tolist()))
    centroids = {idx: verts[idx].mean(axis=0)
                 for idx in dict.fromkeys(work_idx)}

    results: list[list[ConvexPolytope]] = [[] for __ in many]
    live_k, live_idx = np.nonzero(~cell_infeasible)
    for k, idx, mixed in zip(live_k.tolist(), live_idx.tolist(),
                             needs_work[live_k, live_idx].tolist()):
        if not mixed:  # the whole cell
            results[k].append(regions[idx])
            continue
        candidate = next(candidates)
        # A centroid inside the candidate proves it non-empty; otherwise
        # its emptiness LP decides.
        if (candidate.contains_point(centroids[idx])
                or not candidate.is_empty(solver)):
            results[k].append(candidate)
    return results


def _batch_dominance_1d(many: Sequence[MultiObjectivePWL],
                        one: MultiObjectivePWL,
                        regions: tuple, verts: np.ndarray,
                        solver: LinearProgramSolver, factor: float,
                        many_first: bool) -> list[list[ConvexPolytope]]:
    """:func:`batch_dominance_aligned` for one parameter, in floats.

    In one dimension no quantity of the array kernel sums products: a
    weight difference, its norm ``sqrt(dw * dw)``, the normalized row
    ``(dw / norm, db / norm)``, a vertex slack ``v * a - b`` and a
    two-vertex centroid ``(v0 + v1) / 2`` are each one IEEE operation
    (or a correctly rounded square root), which Python floats repeat
    with the same bits.  So this kernel classifies every (member, cell,
    metric) as the array kernel does, builds each mixed cell's candidate
    from the same rows (:func:`~repro.geometry.polytope._halfspace_1d`
    normalizes and keys them as ``with_halfspaces_many`` does), and
    decides candidates with the same centroid test and emptiness LPs in
    the same order.  The array kernel is its test reference
    (``tests/test_vectorized_dominance.py``).
    """
    w_one, b_one = one._aligned_floats()
    cell_verts = verts[:, :, 0].tolist()                  # [cell][vertex]
    # A row's vertex slacks ``v * a - b`` are monotone in ``v`` (each
    # step rounds monotonically), so the smallest and the largest vertex
    # hold the extreme slacks: "all above" and "all at most" 1e-10 are
    # decided at those two, exactly as over every vertex.
    cells = tuple((idx, region, min(corners), max(corners))
                  for idx, (region, corners) in enumerate(
                      zip(regions, cell_verts)))
    metrics = range(len(w_one))
    centroids: dict[int, float] = {}
    results: list[list[ConvexPolytope]] = []
    for cost in many:
        w_k, b_k = cost._aligned_floats()
        polys: list[ConvexPolytope] = []
        for idx, region, low_v, high_v in cells:
            entering = []  # raw rows of the metrics that do not hold
            for m in metrics:
                if many_first:
                    dw = w_k[m][idx] - factor * w_one[m][idx]
                    db = factor * b_one[m][idx] - b_k[m][idx]
                else:
                    dw = w_one[m][idx] - factor * w_k[m][idx]
                    db = factor * b_k[m][idx] - b_one[m][idx]
                norm = math.sqrt(dw * dw)
                if norm > GEOMETRY_EPS:
                    a, b = dw / norm, db / norm
                    low, high = low_v * a - b, high_v * a - b
                    if low > 1e-10 and high > 1e-10:
                        break  # violated at every vertex: no dominance
                    if low <= 1e-10 and high <= 1e-10:
                        continue  # holds on the whole cell
                elif db >= -GEOMETRY_EPS:
                    continue  # zero row, trivially satisfied
                elif db < -GEOMETRY_EPS:
                    break  # zero row, trivially infeasible
                entering.append((dw, db))
            else:
                if not entering:  # the whole cell
                    polys.append(region)
                    continue
                candidate = region._extended(_concat(
                    [_halfspace_1d(dw, db) for dw, db in entering]))
                if idx not in centroids:
                    centroids[idx] = _centroid(cell_verts[idx], verts[idx])
                # A centroid inside the candidate proves it non-empty;
                # otherwise its emptiness LP decides.
                if (candidate._contains_1d(centroids[idx])
                        or not candidate.is_empty(solver)):
                    polys.append(candidate)
        results.append(polys)
    return results


def _concat(blocks: list) -> tuple:
    """One row block holding the rows of ``blocks`` in order."""
    return (tuple(row for block in blocks for row in block[0]),
            tuple(value for block in blocks for value in block[1]),
            [key for block in blocks for key in block[2]],
            any(block[3] for block in blocks))


def _centroid(corners: list, verts: np.ndarray) -> float:
    """``verts.mean(axis=0)`` of one 1-D cell as a float: NumPy's mean
    of two values is ``(v0 + v1) / 2``; other counts ask NumPy."""
    if len(corners) == 2:
        return (corners[0] + corners[1]) / 2
    return float(verts.mean(axis=0)[0])
