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

from collections.abc import Mapping, Sequence

import numpy as np

from ..errors import DimensionMismatchError
from ..geometry import (GEOMETRY_EPS, ConvexPolytope, LinearConstraint,
                        emptiness_many)
from ..lp import LinearProgramSolver
from ..util import scalar_kernels_enabled
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

    __slots__ = ("components", "dim", "_stack_cache")

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
        self._stack_cache: tuple[np.ndarray, np.ndarray] | None = None

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
        return tuple(sorted(self.components))

    def component(self, metric: str) -> PiecewiseLinearFunction:
        """Return the single-objective function for ``metric``."""
        return self.components[metric]

    def evaluate(self, x) -> dict[str, float]:
        """Evaluate all metrics at ``x``."""
        return {name: f.evaluate(x) for name, f in self.components.items()}

    def evaluate_vector(self, x) -> np.ndarray:
        """Evaluate as an array ordered by :attr:`metric_names`."""
        return np.array([self.components[m].evaluate(x)
                         for m in self.metric_names])

    def total_pieces(self) -> int:
        """Total number of linear pieces across all components."""
        return sum(f.num_pieces for f in self.components.values())

    def aligned_stack(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-metric piece coefficients as stacked arrays (cached).

        Returns ``(W, B)`` with ``W`` of shape ``(nM, nP, dim)`` and ``B``
        of shape ``(nM, nP)``, metrics ordered by :attr:`metric_names`.
        Only meaningful for functions whose components share one partition
        (equal piece counts); raises ``ValueError`` otherwise.
        """
        if self._stack_cache is not None:
            return self._stack_cache
        names = self.metric_names
        counts = {self.components[m].num_pieces for m in names}
        if len(counts) != 1:
            raise ValueError("components have differing piece counts")
        w = np.array([[np.asarray(p.w, dtype=float)
                       for p in self.components[m].pieces] for m in names])
        b = np.array([[p.b for p in self.components[m].pieces]
                      for m in names], dtype=float)
        self._stack_cache = (w, b)
        return self._stack_cache

    def same_partition(self, other: MultiObjectivePWL) -> bool:
        """``True`` when every pair of matching components is aligned."""
        if set(self.components) != set(other.components):
            return False
        for name, mine in self.components.items():
            theirs = other.components[name]
            if (mine.partition_token is None
                    or mine.partition_token != theirs.partition_token
                    or len(mine.pieces) != len(theirs.pieces)):
                return False
        return True

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
        if scalar_kernels_enabled():
            return self._dominance_general(other, solver, relax=relax)
        return self._dominance_general_vectorized(other, solver,
                                                  relax=relax)

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
        batch_lps = not scalar_kernels_enabled()
        polys: list[ConvexPolytope | None] = []
        undecided: list[ConvexPolytope] = []
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
            elif batch_lps:
                # Genuinely mixed cell: hold its slot, decide all the
                # mixed cells' emptiness LPs in one batched pass below.
                polys.append(None)
                undecided.append(candidate)
            elif not candidate.is_empty(solver):
                polys.append(candidate)
        if undecided:
            empty = emptiness_many(undecided, solver)
            decided = iter(zip(undecided, empty))
            resolved: list[ConvexPolytope] = []
            for entry in polys:
                if entry is not None:
                    resolved.append(entry)
                    continue
                candidate, is_empty = next(decided)
                if not is_empty:
                    resolved.append(candidate)
            return resolved
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

    def _dominance_general_vectorized(self, other: MultiObjectivePWL,
                                      solver: LinearProgramSolver,
                                      relax: float = 0.0
                                      ) -> list[ConvexPolytope]:
        """NumPy form of the general ``Dom`` with batched emptiness LPs.

        Mirrors :meth:`_dominance_general` decision for decision (the
        scalar path stays available via ``REPRO_SCALAR_KERNELS=1`` and is
        what the equivalence suite compares against):

        * the per-metric dominance-constraint coefficients of all
          ``n1 * n2`` piece pairs come out of one broadcast subtraction,
          and their trivial / trivially-infeasible classification is one
          vectorized norm test instead of a :class:`LinearConstraint`
          construction per pair;
        * the piece-pair intersection emptiness checks, the dominance
          polytope emptiness checks, and each cross-metric combination
          round run as single batched LP passes.

        Constraints attached to surviving polytopes are built with
        :meth:`LinearConstraint.make` from the same difference vectors
        the scalar path uses, so the produced polytopes are identical.
        """
        factor = 1.0 + relax
        per_metric: list[list[ConvexPolytope]] = []
        for name in self.metric_names:
            f1 = self.components[name]
            f2 = other.components[name]
            n2 = len(f2.pieces)
            w1 = np.array([p.w for p in f1.pieces], dtype=float)
            b1 = np.array([p.b for p in f1.pieces], dtype=float)
            w2 = np.array([p.w for p in f2.pieces], dtype=float)
            b2 = np.array([p.b for p in f2.pieces], dtype=float)
            diff_w = w1[:, None, :] - factor * w2[None, :, :]  # (n1, n2, d)
            diff_b = factor * b2[None, :] - b1[:, None]        # (n1, n2)
            # Degenerate zero-coefficient constraints, classified exactly
            # as LinearConstraint.make + is_trivial/is_infeasible_trivial
            # would (near-zero rows keep their unnormalized rhs).
            nontrivial = np.linalg.norm(diff_w, axis=-1) > GEOMETRY_EPS
            trivial = ~nontrivial & (diff_b >= -GEOMETRY_EPS)
            infeasible_triv = ~nontrivial & (diff_b < -GEOMETRY_EPS)

            regions = [p1.region.intersect(p2.region)
                       for p1 in f1.pieces for p2 in f2.pieces]
            region_empty = emptiness_many(regions, solver)
            candidates: list[ConvexPolytope] = []
            for idx, region in enumerate(regions):
                if region_empty[idx]:
                    continue
                i, j = divmod(idx, n2)
                if infeasible_triv[i, j]:
                    continue
                if trivial[i, j]:
                    candidates.append(region)
                else:
                    candidates.append(region.with_constraint(
                        LinearConstraint.make(diff_w[i, j], diff_b[i, j])))
            dom_empty = emptiness_many(candidates, solver)
            polys_m = [dom for dom, empty in zip(candidates, dom_empty)
                       if not empty]
            if not polys_m:
                return []  # dominated nowhere according to this metric
            per_metric.append(polys_m)
        # Combine results from different metrics (cross intersections),
        # one batched emptiness pass per combination round.
        combined = per_metric[0]
        for polys_m in per_metric[1:]:
            crossed = [left.intersect(right)
                       for left in combined for right in polys_m]
            empty = emptiness_many(crossed, solver)
            combined = [poly for poly, is_empty in zip(crossed, empty)
                        if not is_empty]
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
    ``None`` when any precondition for the vectorized path fails.
    """
    names = one.metric_names
    first = one.components[names[0]]
    pieces = first.pieces
    verts_list = []
    for piece in pieces:
        hint = piece.region.vertex_hint
        if hint is None or (verts_list
                            and hint.shape != verts_list[0].shape):
            return None
        verts_list.append(hint)
    for cost in many:
        if not one.same_partition(cost):
            return None
        theirs = cost.components[names[0]].pieces
        for idx, piece in enumerate(pieces):
            # The aligned path only ever reads regions of the first
            # metric's pieces; identity guarantees identical output
            # polytopes (including vertex hints and cell tags).
            if theirs[idx].region is not piece.region:
                return None
    return pieces, np.stack(verts_list)


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
        if set(cost.components) != set(one.components):
            raise ValueError("metric sets differ")
    shared = _shared_pieces(many, one)
    if shared is None:
        return None
    pieces, verts = shared
    factor = 1.0 + relax

    w_one, b_one = one.aligned_stack()                    # (m, p, d) / (m, p)
    w_many = np.stack([c.aligned_stack()[0] for c in many])  # (k, m, p, d)
    b_many = np.stack([c.aligned_stack()[1] for c in many])  # (k, m, p)
    if many_first:
        diff_w = w_many - factor * w_one[None]
        diff_b = factor * b_one[None] - b_many
    else:
        diff_w = w_one[None] - factor * w_many
        diff_b = factor * b_many - b_one[None]

    # Normalize exactly as LinearConstraint.make does.
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
    violated_all = np.all(slack > 1e-10, axis=-1)
    holds_all = np.all(slack <= 1e-10, axis=-1)

    metric_infeasible = infeasible_triv | (nontrivial_norm & violated_all)
    metric_holds = trivial | (nontrivial_norm & ~violated_all & holds_all)
    cell_infeasible = np.any(metric_infeasible, axis=1)   # (k, p)
    cell_whole = ~cell_infeasible & np.all(
        metric_holds | metric_infeasible, axis=1)
    needs_work = ~cell_infeasible & ~cell_whole

    names = one.metric_names
    results: list[list[ConvexPolytope | None]] = []
    undecided: list[ConvexPolytope] = []
    for k in range(len(many)):
        polys: list[ConvexPolytope | None] = []
        for idx in range(len(pieces)):
            if cell_infeasible[k, idx]:
                continue
            # Identity-checked above: p1's region IS the shared region.
            region = pieces[idx].region
            if cell_whole[k, idx]:
                polys.append(region)
                continue
            if needs_work[k, idx]:
                candidate = region
                for m in range(len(names)):
                    if metric_holds[k, m, idx]:
                        continue
                    candidate = candidate.with_constraint(
                        LinearConstraint.make(diff_w[k, m, idx],
                                              diff_b[k, m, idx]))
                if candidate.contains_point(verts[idx].mean(axis=0)):
                    polys.append(candidate)
                else:
                    # Rare mixed cell: hold its slot and decide every
                    # batch member's leftover emptiness LPs in one
                    # batched pass below.
                    polys.append(None)
                    undecided.append(candidate)
        results.append(polys)
    if undecided:
        empty = emptiness_many(undecided, solver)
        decided = iter(zip(undecided, empty))
        resolved_results: list[list[ConvexPolytope]] = []
        for polys in results:
            resolved: list[ConvexPolytope] = []
            for entry in polys:
                if entry is not None:
                    resolved.append(entry)
                    continue
                candidate, is_empty = next(decided)
                if not is_empty:
                    resolved.append(candidate)
            resolved_results.append(resolved)
        return resolved_results
    return results
