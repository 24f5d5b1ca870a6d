"""Resumable anytime RRPA runs: budgets, precision ladders, progress events.

The paper's headline trade-off — exact Pareto plan sets vs. a
``(1 + alpha)``-approximation with a formal guarantee — was previously
reachable only through a monolithic run-to-completion call.  This module
turns one optimization into an explicit-state object, the
:class:`OptimizationRun`: it advances in bounded *steps* (one DP level —
a base table's scan set or one join-graph table set — per step), can be
paused between steps, resumed with fresh :class:`Budget`, and queried for
its best-so-far Pareto set together with a valid guarantee at any step
boundary.

Anytime semantics come from *precision ladders*: a descending sequence of
alpha values (e.g. ``(0.5, 0.2, 0.05, 0.0)``).  Each rung runs the full
dynamic program under alpha-dominance pruning at its alpha; coarser rungs
finish quickly and later rungs warm-start from the work of earlier ones
(plan cost functions are memoized across rungs by plan structure, and the
backend's LP memo carries dominance/emptiness LP results over), so
interrupting the run always leaves the last *completed* rung's plan set
available with its ``(1 + alpha)``-style guarantee.  The final rung at
``alpha = 0`` performs exactly the operations of the classic exact loop in
the same order, so its plan set is bit-identical to a plain
:meth:`repro.core.rrpa.RRPA.optimize` call (regression-tested).

Budgets are *cooperative*: they are checked between steps only, so a run
never aborts mid-level and every observable state is a valid step
boundary.  A budget is scoped to one :meth:`OptimizationRun.run` call —
resuming an exhausted run with a fresh (or no) budget continues from the
exact step where it stopped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from ..errors import OptimizationError
from ..plans import JoinPlan, Plan, ScanPlan, combine
from ..query import Query
from .backend import RRPABackend
from .enumeration import splits, subsets_in_size_order
from .rrpa import OptimizationResult, prune_into
from .stats import OptimizerStats

#: Default precision ladder for anytime optimization: coarse rungs finish
#: fast (guaranteed plan sets early), the last rung is exact.
DEFAULT_PRECISION_LADDER = (0.5, 0.2, 0.05, 0.0)

#: Default for :attr:`OptimizationRun.seed_cap`: seed subtrees inserted
#: per DP table set when warm-starting from a similar query's plan set.
#: Inserting into an empty entry list costs no LPs, so one seed per
#: table set gets a near-optimal incumbent in place essentially free.
#: ``seed_cap = None`` adopts the neighbor's *whole* frontier instead:
#: installation costs roughly one dominance chunk per seed (quadratic
#: in the seeds kept), but a complete frontier lets weak candidates die
#: on their first dominance chunk — measured as a clear win only when
#: the rung's enumeration is expensive enough to amortize it, which is
#: why sessions choose the breadth from the neighbor's recorded repair
#: cost (see :mod:`repro.service.session`).  Partial breadths in
#: between are the worst of both and are never chosen automatically.
DEFAULT_SEED_CAP = 1

#: ``run()`` outcomes.
RUN_COMPLETED = "completed"
RUN_EXHAUSTED = "exhausted"

#: Progress-event kinds, in the order they can occur within one rung.
EVENT_KINDS = ("rung_started", "level", "rung_completed",
               "budget_exhausted")


@dataclass(frozen=True)
class Budget:
    """Cooperative resource budget for one :meth:`OptimizationRun.run` call.

    All limits are optional and combine conjunctively (the run stops at
    the first exhausted limit).  Checks happen at step boundaries, so a
    run may overshoot by at most one step's worth of work — in exchange,
    every interruption point is a valid DP level boundary and the
    best-so-far guarantee stays sound.

    Attributes:
        seconds: Wall-clock limit, measured from the ``run()`` call.
        lps: Limit on linear programs solved during the ``run()`` call.
        steps: Limit on DP levels advanced during the ``run()`` call.
    """

    seconds: float | None = None
    lps: int | None = None
    steps: int | None = None

    def __post_init__(self) -> None:
        if self.seconds is not None and self.seconds < 0:
            raise ValueError("budget seconds must be >= 0")
        if self.lps is not None and self.lps < 0:
            raise ValueError("budget lps must be >= 0")
        if self.steps is not None and self.steps < 0:
            raise ValueError("budget steps must be >= 0")

    @property
    def unlimited(self) -> bool:
        """``True`` when no limit is set."""
        return self.seconds is None and self.lps is None and (
            self.steps is None)

    def as_dict(self) -> dict:
        """JSON/pickle-friendly form (shipped inside pooled payloads)."""
        return {"seconds": self.seconds, "lps": self.lps,
                "steps": self.steps}

    @staticmethod
    def from_dict(doc: dict | None) -> "Budget | None":
        """Inverse of :meth:`as_dict` (``None`` passes through)."""
        if doc is None:
            return None
        return Budget(seconds=doc.get("seconds"), lps=doc.get("lps"),
                      steps=doc.get("steps"))


@dataclass(frozen=True)
class ProgressEvent:
    """One observable state change of an :class:`OptimizationRun`.

    Attributes:
        kind: One of :data:`EVENT_KINDS`.
        rung: Ladder rung index the event belongs to (0-based).
        alpha: The rung's approximation factor.
        guarantee: Multiplicative end-to-end cost bound of the *best
            completed* rung so far (``(1 + alpha) ** levels``); ``None``
            until the first rung completes.
        plan_count: Plans in the plan set the event refers to — the
            just-filled DP level for ``"level"`` events, the final Pareto
            set for ``"rung_completed"``.
        units_done / units_total: Step progress within the current rung.
        lps_solved: LPs solved since the run started (all rungs).
        seconds: Wall-clock spent optimizing since the run started.
        plan_set: Decoded plan set on session-level ``"rung_completed"``
            events (``None`` at the core layer and for other kinds).
    """

    kind: str
    rung: int
    alpha: float
    guarantee: float | None
    plan_count: int
    units_done: int
    units_total: int
    lps_solved: int
    seconds: float
    plan_set: Any = None

    def as_dict(self) -> dict:
        """JSON-friendly form (``plan_set`` is intentionally dropped)."""
        return {"kind": self.kind, "rung": self.rung, "alpha": self.alpha,
                "guarantee": self.guarantee,
                "plan_count": self.plan_count,
                "units_done": self.units_done,
                "units_total": self.units_total,
                "lps_solved": self.lps_solved, "seconds": self.seconds}

    @staticmethod
    def from_dict(doc: dict) -> ProgressEvent:
        """Rebuild an event shipped across a process boundary."""
        return ProgressEvent(
            kind=doc["kind"], rung=doc["rung"], alpha=doc["alpha"],
            guarantee=doc.get("guarantee"), plan_count=doc["plan_count"],
            units_done=doc["units_done"], units_total=doc["units_total"],
            lps_solved=doc["lps_solved"], seconds=doc["seconds"])


@dataclass
class RungOutcome:
    """One completed ladder rung: its result and guarantee accounting."""

    rung: int
    alpha: float
    guarantee: float
    result: OptimizationResult


def guarantee_bound(alpha: float, num_tables: int) -> float:
    """End-to-end multiplicative cost bound of alpha-dominance pruning.

    Every pruning comparison discards a plan only where an alternative is
    within ``(1 + alpha)`` on all metrics; discards compound along chains
    bounded by the DP depth (one level per table-set cardinality), so the
    kept set covers every possible plan within
    ``(1 + alpha) ** num_tables`` (the bound the approximation test suite
    verifies empirically).
    """
    return (1.0 + alpha) ** max(1, num_tables)


class _BudgetWindow:
    """Budget accounting scoped to one ``run()``/``iter_run()`` call."""

    def __init__(self, budget: Budget | None, run: OptimizationRun):
        self.budget = budget
        self._run = run
        self._started = time.perf_counter()
        self._lps_start = run.lps_solved
        self.steps = 0

    def exhausted(self) -> bool:
        budget = self.budget
        if budget is None:
            return False
        if budget.steps is not None and self.steps >= budget.steps:
            return True
        if budget.lps is not None and (
                self._run.lps_solved - self._lps_start) >= budget.lps:
            return True
        if budget.seconds is not None and (
                time.perf_counter() - self._started) >= budget.seconds:
            return True
        return False


class OptimizationRun:
    """A resumable RRPA run over a precision ladder.

    The run owns one backend and advances the dynamic program in bounded
    steps; between steps it can be paused (just stop calling
    :meth:`step`/:meth:`run`), resumed, and asked for its best completed
    plan set (:meth:`result`).  With a multi-rung ladder, each rung
    re-runs the DP at a tighter alpha while reusing the cost functions
    built by earlier rungs (memoized by plan structure — warm-starting
    from *similar* state, not just exact-signature reuse) and the
    backend's LP memo.

    Args:
        backend: Backend implementing the elementary RRPA operations.
        query: The query to optimize.
        precision_ladder: Strictly decreasing alphas, e.g.
            ``(0.5, 0.2, 0.0)``; ``None`` runs a single rung at the
            backend's configured approximation factor without ever
            touching it (any backend works then).  Multi-rung ladders
            require the backend to support
            :meth:`~repro.core.backend.RRPABackend
            .set_approximation_factor`.
        fold_stats: Optional external :class:`OptimizerStats` whose
            emptiness-check counters are folded into every rung result
            (the accounting :class:`repro.core.pwl_rrpa.PWLRRPA` keeps
            for its backend).
        seed_plans: Optional plan trees from a *similar* query (same
            tables and join graph, drifted statistics) — e.g. the Pareto
            set of a :class:`repro.store.PlanSetStore` nearest-neighbor
            entry.  Their subtrees are re-costed under *this* query's
            cost model and inserted as pruning incumbents at the start
            of each DP level of the first rung, so near-optimal
            incumbents discard weak candidates on their first dominance
            chunk instead of lingering in the entry list.  Seeds only
            ever apply to rungs with ``alpha > 0`` (the "repair" rungs
            re-run the full DP), so the final exact rung stays
            bit-identical to an unseeded run; structurally invalid seeds
            (foreign tables, disconnected splits) are dropped.
    """

    def __init__(self, backend: RRPABackend, query: Query, *,
                 precision_ladder=None,
                 fold_stats: OptimizerStats | None = None,
                 seed_plans=None) -> None:
        self.backend = backend
        self.query = query
        self._explicit_ladder = precision_ladder is not None
        if precision_ladder is None:
            precision_ladder = (
                getattr(backend, "approximation_factor", 0.0),)
        self.ladder = validate_ladder(precision_ladder)
        self.fold_stats = fold_stats
        self.events: list[ProgressEvent] = []
        self.completed: list[RungOutcome] = []
        #: How the last :meth:`iter_run` ended: :data:`RUN_COMPLETED`,
        #: :data:`RUN_EXHAUSTED`, or ``None`` while one is under way or
        #: after one was abandoned before it ended.
        self.last_status: str | None = None
        self._rung = 0
        self._done = False
        self._units: list[tuple] | None = None
        self._unit_index = 0
        self._dp: dict[frozenset[str], list] = {}
        self._stats = OptimizerStats()
        self._elapsed = 0.0
        self._rung_seconds = 0.0
        self.seed_plans = tuple(seed_plans or ())
        #: Seed subplans inserted as incumbents so far (introspection).
        self.seeded_plans = 0
        #: Seed subtrees inserted per DP table set: an integer caps the
        #: breadth, ``None`` adopts the neighbor's whole frontier (see
        #: :data:`DEFAULT_SEED_CAP` for the tradeoff).
        self.seed_cap = DEFAULT_SEED_CAP
        self._seed_index: dict[frozenset[str], list] | None = None
        # Cross-rung warm start: cost functions are deterministic in the
        # plan structure, so later (tighter) rungs reuse the ones earlier
        # rungs built instead of re-running AccumulateCost.  Disabled for
        # single-rung runs where it could only cost memory (seeded runs
        # keep it on: seed costs must be shared across rungs).
        self._warm = len(self.ladder) > 1 or bool(self.seed_plans)
        self._cost_memo: dict[tuple, Any] = {}
        self._local_cost_memo: dict[tuple, Any] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """``True`` once every ladder rung has completed."""
        return self._done

    @property
    def rung(self) -> int:
        """Index of the rung currently being (or next to be) advanced."""
        return min(self._rung, len(self.ladder) - 1)

    @property
    def alpha(self) -> float:
        """Approximation factor of the current rung."""
        return self.ladder[self.rung]

    @property
    def lps_solved(self) -> int:
        """LPs solved by this run so far (all rungs)."""
        lp_stats = getattr(self.backend, "lp_stats", None)
        return lp_stats.solved if lp_stats is not None else 0

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock seconds spent inside :meth:`step` so far."""
        return self._elapsed

    @property
    def has_result(self) -> bool:
        """``True`` once at least one rung has completed."""
        return bool(self.completed)

    @property
    def achieved_alpha(self) -> float | None:
        """Alpha of the best completed rung (``None`` before the first)."""
        return self.completed[-1].alpha if self.completed else None

    @property
    def guarantee(self) -> float | None:
        """End-to-end cost bound of the best completed rung, if any."""
        return self.completed[-1].guarantee if self.completed else None

    def result(self) -> OptimizationResult | None:
        """Best-so-far result: the latest completed rung's plan set.

        Returns ``None`` when no rung has completed yet (nothing with a
        valid guarantee exists).  Once :attr:`done`, this is the final
        (target-precision) result.
        """
        return self.completed[-1].result if self.completed else None

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def _prepare_rung(self) -> None:
        """Reset per-rung state and emit the ``rung_started`` event."""
        if self._explicit_ladder:
            self.backend.set_approximation_factor(self.ladder[self._rung])
        self.backend.on_run_start()
        self._stats = OptimizerStats()
        if hasattr(self.backend, "lp_stats"):
            self._stats.lp_stats = self.backend.lp_stats
        self._dp = {}
        self._units = (
            [("scan", table) for table in self.query.tables]
            + [("join", subset)
               for subset in subsets_in_size_order(self.query)])
        self._unit_index = 0
        self._rung_seconds = 0.0
        self._emit("rung_started", plan_count=0)

    def _emit(self, kind: str, plan_count: int) -> ProgressEvent:
        event = ProgressEvent(
            kind=kind, rung=self._rung,
            alpha=self.ladder[min(self._rung, len(self.ladder) - 1)],
            guarantee=self.guarantee, plan_count=plan_count,
            units_done=self._unit_index,
            units_total=len(self._units or ()),
            lps_solved=self.lps_solved, seconds=self._elapsed)
        self.events.append(event)
        return event

    def step(self) -> bool:
        """Advance one DP level; return ``True`` when a rung completed.

        Raises:
            OptimizationError: If a table set ends with no surviving plan
                (inconsistent cost model or backend), exactly as the
                classic loop does.
        """
        if self._done:
            return False
        if self._units is None:
            self._prepare_rung()
        started = time.perf_counter()
        try:
            self._process_unit(self._units[self._unit_index])
        finally:
            seconds = time.perf_counter() - started
            self._elapsed += seconds
            self._rung_seconds += seconds
        self._unit_index += 1
        if self._unit_index < len(self._units):
            kind, key = self._units[self._unit_index - 1]
            level = self._dp[key if kind == "join"
                             else frozenset((key,))]
            self._emit("level", plan_count=len(level))
            return False
        self._complete_rung()
        return True

    def _process_unit(self, unit: tuple) -> None:
        backend, stats, dp = self.backend, self._stats, self._dp
        kind, key = unit
        if kind == "scan":
            table = key
            entries = dp.setdefault(frozenset((table,)), [])
            for operator in backend.scan_operators(table):
                plan = ScanPlan(table=table, operator=operator)
                prune_into(backend, entries, plan,
                           self._scan_cost(plan), stats)
            if not entries:
                raise OptimizationError(
                    f"no scan plans survived for table {table!r}")
            return
        subset = key
        entries = []
        dp[subset] = entries
        if self.seed_plans and self._rung == 0 and (
                self.ladder[0] > 0):
            candidates = self._seed_candidates(subset)
            if self.seed_cap is not None:
                candidates = candidates[:self.seed_cap]
            for plan in candidates:
                try:
                    cost = self._seed_cost(plan)
                except Exception:
                    # Foreign seed the cost model rejects: skip it — the
                    # enumeration below covers the table set regardless.
                    continue
                prune_into(backend, entries, plan, cost, stats)
                self.seeded_plans += 1
        for left_set, right_set in splits(self.query, subset):
            left_entries = dp.get(left_set)
            right_entries = dp.get(right_set)
            if not left_entries or not right_entries:
                continue
            for operator in backend.join_operators():
                local = self._join_local_cost(left_set, right_set,
                                              operator)
                for left in left_entries:
                    for right in right_entries:
                        plan = combine(left.plan, right.plan, operator)
                        cost = self._plan_cost(plan, local, left, right)
                        prune_into(backend, entries, plan, cost, stats)
        if not entries:
            raise OptimizationError(
                f"no plans survived for table set {sorted(subset)}")

    def _seed_candidates(self, subset: frozenset[str]) -> tuple:
        if self._seed_index is None:
            self._seed_index = self._build_seed_index()
        return tuple(self._seed_index.get(subset, ()))

    def _build_seed_index(self) -> dict[frozenset[str], list]:
        """Validate seed plans and index their join subtrees by table set.

        A seed is usable only if the DP could have produced it for *this*
        query: it must span exactly the query's tables, and (for
        connected join graphs) every subtree and split side must be
        connected — otherwise the plan contains a Cartesian product the
        enumeration would never generate, and it is dropped whole.
        """
        graph = self.query.join_graph
        connected = graph.is_connected()
        counts: dict[frozenset[str], dict[tuple, list]] = {}
        for root in self.seed_plans:
            if not isinstance(root, Plan) or (
                    root.tables != self.query.table_set):
                continue
            joins = [node for node in root.nodes()
                     if isinstance(node, JoinPlan)]
            if connected and any(
                    not graph.is_connected(node.tables)
                    or not graph.is_connected(node.left.tables)
                    or not graph.is_connected(node.right.tables)
                    for node in joins):
                continue
            for node in joins:
                per_subset = counts.setdefault(node.tables, {})
                slot = per_subset.get(node.signature())
                if slot is None:
                    per_subset[node.signature()] = [node, 1]
                else:
                    slot[1] += 1
        # Rank the most frequently used subtrees per table set first (a
        # subtree shared by many seed plans is likely load-bearing); the
        # breadth cap is applied at insertion time so callers may adjust
        # :attr:`seed_cap` after construction.
        index: dict[frozenset[str], list] = {}
        for subset, per_subset in counts.items():
            ranked = sorted(per_subset.values(), key=lambda s: -s[1])
            index[subset] = [slot[0] for slot in ranked]
        return index

    def _seed_cost(self, plan: Plan):
        """Cost a seed subtree under this query's model, via the memo.

        Recursion bottoms out at scan leaves; every intermediate cost
        lands in the cross-rung memo, so later (tighter) rungs reuse the
        seed's cost functions exactly like any other plan's.
        """
        if isinstance(plan, ScanPlan):
            return self._scan_cost(plan)
        key = plan.signature()
        cost = self._cost_memo.get(key)
        if cost is None:
            left = self._seed_cost(plan.left)
            right = self._seed_cost(plan.right)
            local = self._join_local_cost(plan.left.tables,
                                          plan.right.tables,
                                          plan.operator)
            cost = self.backend.accumulate(local, (left, right))
            self._cost_memo[key] = cost
        return cost

    def _scan_cost(self, plan: ScanPlan):
        if not self._warm:
            return self.backend.scan_cost(plan)
        key = plan.signature()
        cost = self._cost_memo.get(key)
        if cost is None:
            cost = self.backend.scan_cost(plan)
            self._cost_memo[key] = cost
        return cost

    def _join_local_cost(self, left_set, right_set, operator):
        if not self._warm:
            return self.backend.join_local_cost(left_set, right_set,
                                                operator)
        key = (left_set, right_set, operator)
        cost = self._local_cost_memo.get(key)
        if cost is None:
            cost = self.backend.join_local_cost(left_set, right_set,
                                                operator)
            self._local_cost_memo[key] = cost
        return cost

    def _plan_cost(self, plan, local, left, right):
        if not self._warm:
            return self.backend.accumulate(local, (left.cost, right.cost))
        key = plan.signature()
        cost = self._cost_memo.get(key)
        if cost is None:
            cost = self.backend.accumulate(local, (left.cost, right.cost))
            self._cost_memo[key] = cost
        return cost

    def _complete_rung(self) -> None:
        query, stats = self.query, self._stats
        stats.optimization_seconds = self._rung_seconds
        if self.fold_stats is not None:
            # Fold the backend's emptiness accounting (totals across all
            # rungs so far — consistent with lp_stats, which the rungs
            # share) into this rung's counters, which are otherwise zero.
            stats.emptiness_checks += self.fold_stats.emptiness_checks
            stats.emptiness_checks_skipped += (
                self.fold_stats.emptiness_checks_skipped)
        final = self._dp[query.table_set] if query.num_tables > 1 else (
            self._dp[frozenset((query.tables[0],))])
        alpha = self.ladder[self._rung]
        result = OptimizationResult(
            query=query, entries=list(final), stats=stats,
            dp_table=self._dp, achieved_alpha=alpha,
            guarantee=guarantee_bound(alpha, query.num_tables))
        self.completed.append(RungOutcome(
            rung=self._rung, alpha=alpha, guarantee=result.guarantee,
            result=result))
        self._emit("rung_completed", plan_count=len(result.entries))
        self._rung += 1
        self._units = None
        if self._rung >= len(self.ladder):
            self._done = True

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self, budget: Budget | None = None) -> str:
        """Advance until done or budget exhaustion.

        Drains :meth:`iter_run`; every event it emits is recorded in
        :attr:`events`.  To stop a run early, pass a budget, or advance
        :meth:`iter_run` yourself and stop asking for events.

        Args:
            budget: Limits scoped to *this call* (resuming with a fresh
                budget continues where the previous call stopped).

        Returns:
            :data:`RUN_COMPLETED` or :data:`RUN_EXHAUSTED` (also kept as
            :attr:`last_status`).
        """
        for __ in self.iter_run(budget):
            pass
        return self.last_status

    def iter_run(self, budget: Budget | None = None):
        """Advance like :meth:`run`, yielding events as they are emitted.

        One budget window spans the whole iteration (repeated calls each
        get a fresh window).  :attr:`last_status` is ``None`` from the
        start of the iteration; it becomes :data:`RUN_EXHAUSTED` when the
        budget stops it and :data:`RUN_COMPLETED` when the run is done.
        An iteration the caller stops consuming leaves it ``None``.
        """
        window = _BudgetWindow(budget, self)
        self.last_status = None
        while not self._done:
            if window.exhausted():
                event = self._emit("budget_exhausted", plan_count=len(
                    self.completed[-1].result.entries)
                    if self.completed else 0)
                self.last_status = RUN_EXHAUSTED
                yield event
                return
            mark = len(self.events)
            self.step()
            window.steps += 1
            yield from self.events[mark:]
        self.last_status = RUN_COMPLETED


def validate_ladder(precision_ladder) -> tuple[float, ...]:
    """Validate and normalize a precision ladder.

    Raises:
        ValueError: For empty ladders, negative alphas, or alphas not in
            strictly decreasing order.
    """
    ladder = tuple(float(alpha) for alpha in precision_ladder)
    if not ladder:
        raise ValueError("precision ladder must not be empty")
    for alpha in ladder:
        if alpha < 0:
            raise ValueError("precision ladder alphas must be >= 0")
    for coarse, fine in zip(ladder, ladder[1:]):
        if fine >= coarse:
            raise ValueError(
                "precision ladder must be strictly decreasing "
                f"(got {ladder})")
    return ladder


def ladder_to(target: float,
              ladder=DEFAULT_PRECISION_LADDER) -> tuple[float, ...]:
    """The default precision ladder truncated to end at ``target``."""
    if target < 0:
        raise ValueError("target precision must be >= 0")
    return tuple(a for a in ladder if a > target) + (float(target),)


#: Default jump-in alpha for seeded runs: leading ladder rungs coarser
#: than this are dropped when a cross-query seed is available (see
#: :func:`trim_ladder_for_seed`).
SEED_JUMP_ALPHA = 0.05


def trim_ladder_for_seed(ladder,
                         jump_alpha: float = SEED_JUMP_ALPHA
                         ) -> tuple[float, ...]:
    """Drop leading rungs coarser than ``jump_alpha`` from a ladder.

    A cold anytime run descends coarse rungs first so *some* guarantee
    exists early.  A run seeded from a similar query's Pareto set jumps
    straight to the tightest affordable rung instead: the seed's
    subtrees prime the DP incumbents there, and the coarse rungs'
    protection is redundant next to the near-miss state already in hand.
    The first *formal* guarantee then arrives at the target alpha with
    far fewer LPs than descending the whole ladder.

    The final rung is always kept, so the run's target precision never
    changes; with ``jump_alpha`` coarser than the whole ladder this is a
    no-op.
    """
    kept = tuple(a for a in ladder if a <= jump_alpha + 1e-12)
    return kept if kept else (ladder[-1],)


__all__ = [
    "Budget",
    "DEFAULT_PRECISION_LADDER",
    "DEFAULT_SEED_CAP",
    "EVENT_KINDS",
    "OptimizationRun",
    "ProgressEvent",
    "RUN_COMPLETED",
    "RUN_EXHAUSTED",
    "RungOutcome",
    "SEED_JUMP_ALPHA",
    "guarantee_bound",
    "ladder_to",
    "trim_ladder_for_seed",
    "validate_ladder",
]
