"""OptimizerSession: the unified front door for all MPQ optimization.

One session owns everything a serving process needs across many
optimization calls:

* an **executor** that decides where ``submit``, ``as_completed``,
  ``map`` and ``optimize`` run, behind one submit/collect path
  (``optimize_iter`` takes none: it steps its run in the calling
  thread on every session).  A serial session (``workers <= 1``) uses an
  in-process executor: its ``submit`` runs the task in the calling
  thread and returns an already-resolved future.  A pooled session uses
  a **persistent worker pool**, spawned lazily on the first call and
  reused across batches.  Per-call deadlines do not stall a pooled
  call: overdue items are reported ``"timeout"``, queued tasks are
  cancelled, and only when a worker is still *executing* an overdue
  task is the pool recycled (the stuck worker terminated, a fresh pool
  spawned lazily on the next call) — otherwise the pool survives
  untouched, and results arriving just past the deadline still feed the
  warm-start cache;
* **session-scoped shared state** — the :class:`WarmStartCache` of
  serialized Pareto plan sets and an LP-result memo
  (:class:`repro.lp.LPResultCache`).  In-process work (serial tasks
  and every ``optimize_iter``) runs with the session memo installed for
  the calling thread only (the installed memo is per thread, so serial
  sessions on different threads never see each other's memo).  A pool
  task runs on its own run's memo (``options.lp_cache_size``), exactly
  as a session-free :func:`repro.api.optimize_query` does, so an item's
  LP counts do not depend on which worker ran it;
* the **scenario registry** — queries are optimized under a named
  scenario (``"cloud"``, ``"approx"``, or anything registered via
  :func:`repro.service.registry.register_scenario`), so new cost-model
  workloads need one registration instead of a new module of glue.

Submission surfaces:

* :meth:`OptimizerSession.submit` — one query, returns a
  :class:`concurrent.futures.Future` resolving to a :class:`BatchItem`;
* :meth:`OptimizerSession.as_completed` — many queries, yields items in
  completion order as they finish (streaming);
* :meth:`OptimizerSession.map` — many queries, returns items in input
  order (the legacy batch contract, with per-query error isolation,
  deadline handling and in-batch deduplication);
* :meth:`OptimizerSession.optimize` — one query; with ``precision=`` /
  ``budget=`` it becomes an *anytime* call that returns the best
  guaranteed plan set the budget allowed (cooperative: budgets are
  enforced inside the run at DP step boundaries, so pooled workers stop
  themselves and the pool survives);
* :meth:`OptimizerSession.optimize_iter` — one query, streams
  :class:`~repro.core.run.ProgressEvent` objects over a precision
  ladder; each ``rung_completed`` event carries a successively tighter
  plan set with its ``(1 + alpha)`` guarantee.  The run is stepped in
  the calling thread on the session memo, whatever ``workers`` is.

Tasks return *serialized* plan sets (JSON documents) under both
executors, which sidesteps pickling optimizer internals, feeds the cache
for free, and makes a serial and a pooled session produce the same
items; ``optimize_iter`` builds its events from the same documents.
"""

from __future__ import annotations

import pickle
import time
from collections.abc import Iterator, Sequence
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import as_completed as _futures_as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from ..core import (DEFAULT_SEED_CAP, RUN_COMPLETED, Budget,
                    OptimizerStats, ProgressEvent, PWLRRPAOptions,
                    StoredPlanSet, decode_plan, decode_plan_set,
                    encode_result, ladder_to, trim_ladder_for_seed,
                    validate_ladder)
from ..errors import OptimizationError
from ..faults import failpoint
from ..lp import LPResultCache, install_shared_lp_cache
from ..query import Query
from .cache import WarmStartCache
from .registry import ScenarioRegistry, default_registry
from .signature import (family_digest, query_signature,
                        signature_features, statistics_digest)

#: Result statuses a batch item can end in.  ``"partial"`` is the
#: anytime outcome: the budget expired before the target precision, but
#: a coarser rung completed — the plan set is valid with the reported
#: guarantee.
STATUSES = ("ok", "cached", "partial", "error", "timeout")

#: Recorded repair cost (total LPs of the run that produced a stored
#: plan-set document) above which a seeded run adopts the neighbor's
#: *whole* frontier instead of one incumbent per table set — the
#: quadratic seed-installation cost only amortizes against expensive
#: enumerations.  Stored documents carry the cost as ``repair_lps``;
#: entries without it (older documents) stay on the conservative arm.
SEED_ALL_IN_LPS = 10_000.0


@dataclass
class BatchItem:
    """Outcome of one query submitted to a session.

    Attributes:
        index: Position of the query in the submitted sequence (``0`` for
            single :meth:`OptimizerSession.submit` calls).
        signature: Warm-start cache key of the query.
        status: One of :data:`STATUSES`.
        plan_set: Run-time-selectable Pareto plan set (``None`` unless
            :attr:`ok`).
        stats: Optimizer-stats summary dict (``None`` for cached/failed
            items).
        error: Error description for ``"error"``/``"timeout"`` items.
        seconds: Wall-clock optimization time (0 for cache hits).
        scenario: Name of the scenario the query was optimized under.
        alpha: Approximation tag of the returned plan set: the rung the
            run achieved (``0`` for exact results).
        guarantee: End-to-end multiplicative cost bound of the plan set
            (``1.0`` for exact results): every possible plan is covered
            within this factor on all metrics.
        events: :class:`~repro.core.run.ProgressEvent` trail of anytime
            runs (empty for exact-mode items).
    """

    index: int
    signature: str
    status: str
    plan_set: StoredPlanSet | None = None
    stats: dict | None = None
    error: str | None = None
    seconds: float = 0.0
    scenario: str = "cloud"
    alpha: float = 0.0
    guarantee: float = 1.0
    events: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        """``True`` when a plan set is available.

        ``"partial"`` counts: the set is valid, only its guarantee is
        coarser than requested (check :attr:`alpha`/:attr:`guarantee`).
        """
        return self.status in ("ok", "cached", "partial")


def _optimize_payload(payload: tuple) -> tuple[int, dict, dict, float]:
    """Task entry point: optimize one query, return serialized output.

    Module-level (not a closure) so process pools can pickle it; the
    in-process executor calls it directly.  The payload carries the
    :class:`~repro.service.registry.Scenario` object itself whenever it
    pickles (built-in scenarios and any scenario with module-level
    factories do), so workers on spawn-based platforms do not depend on
    fork-inherited registry state.  A ``None`` scenario is the fallback
    for unpicklable registrations and resolves by name from the worker's
    process-global default registry — which then must know the name
    (register it in a module the workers import).

    Returns ``(index, outcome, stats_summary, elapsed)``.  The outcome
    dict carries the encoded plan set (``"doc"``), the achieved
    ``"alpha"``/``"guarantee"``, a ``"status"``, and — for anytime
    payloads — the progress-event trail as event documents
    (``"trail"``, see :func:`_event_doc`).
    """
    (index, scenario_name, scenario, query, resolution, options,
     anytime) = payload
    if scenario is None:
        scenario = default_registry().get(scenario_name)
    # Chaos failpoints (inert without a REPRO_FAULTS schedule): a hang
    # exercises the session deadline/recycle path, a crash kills the
    # worker process hard (pool-breaking, exercises pool respawn).
    failpoint("service.worker.hang")
    failpoint("service.worker.crash")
    started = time.perf_counter()
    if anytime is None:
        result = scenario.optimize(query, resolution=resolution,
                                   options=options)
        outcome = {"doc": encode_result(result), "status": "ok",
                   "alpha": result.achieved_alpha,
                   "guarantee": result.guarantee}
        stats = result.stats.summary()
    else:
        outcome, stats = _run_anytime(scenario, query, resolution,
                                      options, anytime)
    elapsed = time.perf_counter() - started
    if failpoint("service.worker.poison") is not None:
        # Poisoned result: an undecodable document, which the receiving
        # side must classify as an error item (never crash on).
        outcome["doc"] = {"poisoned": True}
    return index, outcome, stats, elapsed


def _event_doc(run, event) -> dict:
    """The document of one progress event of ``run``.

    ``{"event": event.as_dict()}``; a ``rung_completed`` event also
    carries the rung's encoded plan set with its alpha and guarantee
    under ``"rung"``.  Every event a session yields or returns is
    rebuilt from such a document (:func:`_event_from_doc`), whichever
    executor ran the optimization.
    """
    doc = {"event": event.as_dict()}
    if event.kind == "rung_completed":
        outcome = run.completed[event.rung]
        doc["rung"] = {"doc": encode_result(outcome.result),
                       "alpha": outcome.alpha,
                       "guarantee": outcome.guarantee}
    return doc


def _event_from_doc(doc: dict) -> ProgressEvent:
    """Rebuild an event from its document (see :func:`_event_doc`).

    A ``rung_completed`` event gets the rung's decoded plan set
    attached; an undecodable rung leaves the bare event.
    """
    event = ProgressEvent.from_dict(doc["event"])
    rung = doc.get("rung")
    if rung is not None:
        try:
            event = replace(event, plan_set=decode_plan_set(rung["doc"]))
        except Exception:  # reprolint: disable=REP601
            pass  # undecodable rung: ship the bare event
    return event


def _tag_repair_cost(doc: dict, lps) -> dict:
    """Record the producing run's LP count on a plan-set document.

    Stored as ``repair_lps`` next to the document's guarantee tags: a
    later near-miss run seeded from this document reads it to choose its
    seeding breadth (see :meth:`OptimizerSession._seed_breadth`).
    Decoders ignore the extra key, so plan-set round-trips are
    unaffected.
    """
    try:
        lps = float(lps)
    except (TypeError, ValueError):
        return doc
    if lps > 0:
        doc["repair_lps"] = lps
    return doc


def _decode_seed_plans(spec: dict | None) -> list | None:
    """The plan trees of a seed spec (``{"plans": [...], "cap": ...}``,
    what :meth:`OptimizerSession._store_seed` builds); undecodable
    plans degrade to an unseeded run."""
    if not spec or not spec["plans"]:
        return None
    try:
        return [decode_plan(doc) for doc in spec["plans"]]
    except Exception:  # reprolint: disable=REP601
        return None  # unusable seed: run cold


def _start_run(scenario, query: Query, resolution: int, options,
                anytime: dict):
    """Build the (possibly store-seeded) run an anytime payload asks for."""
    spec = anytime.get("seed")
    seed_plans = _decode_seed_plans(spec)
    run = scenario.start_run(
        query, resolution=resolution, options=options,
        precision_ladder=tuple(anytime["ladder"]),
        seed_plans=seed_plans)
    if seed_plans:
        run.seed_cap = spec["cap"]
    return run


def _run_anytime(scenario, query: Query, resolution: int, options,
                 anytime: dict) -> tuple[dict, dict]:
    """Run an anytime precision ladder to its (cooperative) budget.

    The budget is enforced *inside* the run at step boundaries, so a
    pooled worker returns its best-so-far by itself — no cancellation,
    no pool teardown.
    """
    run = _start_run(scenario, query, resolution, options, anytime)
    status = run.run(Budget.from_dict(anytime.get("budget")))
    trail = [_event_doc(run, event) for event in run.events]
    rungs = [doc["rung"] for doc in trail if "rung" in doc]
    result = run.result()
    if status == RUN_COMPLETED:
        item_status = "ok"
    elif rungs:
        item_status = "partial"
    else:
        item_status = "timeout"
    outcome = {
        "doc": rungs[-1]["doc"] if rungs else None,
        "alpha": run.achieved_alpha,
        "guarantee": run.guarantee,
        "status": item_status,
        "trail": trail,
    }
    stats = (result.stats.summary() if result is not None
             else OptimizerStats().summary())
    return outcome, stats


@contextmanager
def _memo_installed(memo: LPResultCache | None):
    """Install ``memo`` for the calling thread, restoring on exit.

    ``None`` (cross-run memoization disabled) leaves whatever the thread
    has installed in place.
    """
    if memo is None:
        yield
        return
    previous = install_shared_lp_cache(memo)
    try:
        yield
    finally:
        install_shared_lp_cache(previous)


class _InProcessExecutor(Executor):
    """Executor of serial sessions: tasks run in the calling thread.

    ``submit`` runs the task before it returns, with the session LP memo
    installed, and returns an already-resolved future holding the
    task's result or exception — so the session's submit/collect code
    serves serial and pooled sessions alike.
    """

    def __init__(self, memo: LPResultCache | None) -> None:
        self._memo = memo

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        with _memo_installed(self._memo):
            try:
                future.set_result(fn(*args, **kwargs))
            except Exception as exc:  # reprolint: disable=REP601
                # Stored like a pool stores it: the session's completion
                # callback turns it into an error item.
                future.set_exception(exc)
        return future


class OptimizerSession:
    """Session façade over the optimizer: pool, caches and scenarios.

    Args:
        scenario: Default scenario name for submitted queries (resolved
            eagerly, so typos fail at construction).
        workers: Worker processes; ``0`` or ``1`` optimizes in the
            calling thread (serial, through an in-process executor),
            ``>= 2`` uses the persistent process pool.
            :meth:`optimize_iter` runs in the calling thread either way.
        resolution: PWL grid resolution of the scenario cost models.
        options: Backend options forwarded to every optimization.
        timeout_seconds: Per-call deadline for :meth:`map` /
            :meth:`as_completed`, measured from call start (pool mode
            only: in-process tasks are finished before anything waits
            on them, as a serial run cannot preempt an optimization).
            Overdue items are reported ``"timeout"``; workers caught
            still executing an overdue task are terminated and the pool
            respawned lazily, so later calls get full capacity instead
            of sharing it with abandoned work.
        warm_start: Consult/populate the warm-start cache.
        cache: Warm-start cache to share; a private one is created when
            omitted.
        registry: Scenario registry; the process-global default when
            omitted.  Scenarios are *shipped* to pooled workers inside
            each task payload whenever they pickle (built-in scenarios
            and any registration with module-level factories do), so
            custom registries work with pooled sessions on both fork- and
            spawn-based platforms.  Unpicklable registrations fall back
            to by-name resolution from the worker's default registry,
            which then must have the name registered in a module the
            workers import.
        mp_context: Optional :mod:`multiprocessing` context for the
            worker pool (e.g. ``multiprocessing.get_context("spawn")``);
            the platform default when omitted.
        lp_memo_size: Capacity of the session-scoped LP-result memo
            used by in-process work: serial tasks and every
            :meth:`optimize_iter` (``0`` disables cross-run LP
            memoization — those runs then fall back to the optimizer's
            private per-run memo governed by ``options.lp_cache_size``).
            Pool tasks always run on that per-run memo.  In-process runs
            install the memo for their own thread only, so sessions
            driven from different threads keep their memos (and LP
            counters) apart.

    The session is a context manager; :meth:`close` is idempotent and is
    also invoked on garbage collection.
    """

    def __init__(self, scenario: str = "cloud", *, workers: int = 0,
                 resolution: int = 2,
                 options: PWLRRPAOptions | None = None,
                 timeout_seconds: float | None = None,
                 warm_start: bool = True,
                 cache: WarmStartCache | None = None,
                 registry: ScenarioRegistry | None = None,
                 mp_context=None,
                 lp_memo_size: int = 65536) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise ValueError("timeout must be positive")
        if lp_memo_size < 0:
            raise ValueError("lp_memo_size must be >= 0")
        self.registry = registry if registry is not None else (
            default_registry())
        self.scenario = scenario
        self.registry.get(scenario)  # fail fast on unknown names
        self.workers = workers
        self.resolution = resolution
        self.options = options
        self.timeout_seconds = timeout_seconds
        self.warm_start = warm_start
        self.cache = cache if cache is not None else WarmStartCache()
        self.lp_memo = (LPResultCache(lp_memo_size)
                        if lp_memo_size > 0 else None)
        self.mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False
        self._timed_out = False
        #: Per-name shipping decision, keyed to the scenario instance it
        #: was made for: ``(scenario, scenario-or-None)`` — ``None``
        #: selects the by-name worker fallback for unpicklable entries.
        self._ship_cache: dict[str, tuple] = {}
        #: Times a worker pool was spawned; stays at 1 across any number
        #: of batch calls (the regression the legacy engine had).
        self.pool_spawns = 0
        #: Broken pools (a worker killed hard) replaced with a fresh one
        #: so a single crash does not poison the session.
        self.pool_respawns = 0
        #: LP memo hits summed over every completed item's stats.
        self.lp_cache_hits_total = 0
        #: Anytime cache misses where the persistent store produced a
        #: similar-query seed, and where it produced none.
        self.store_seed_hits = 0
        self.store_seed_misses = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` ran."""
        return self._closed

    def __enter__(self) -> OptimizerSession:
        self._check_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:  # reprolint: disable=REP601
            pass  # interpreter may be tearing down under GC

    def close(self) -> None:
        """Shut the session down (idempotent).

        Waits for in-flight work.  The exception is a deadline miss whose
        handling was cut short (an abandoned ``as_completed`` iterator):
        its overdue workers are terminated outright instead of stalling
        the close.
        """
        if self._closed:
            return
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if self._timed_out:
            # Abandoned (timed-out) tasks may still be running; do not
            # stall on them — queued tasks are cancelled and the worker
            # processes terminated outright.
            processes = dict(getattr(pool, "_processes", None) or {})
            pool.shutdown(wait=False, cancel_futures=True)
            for process in processes.values():
                process.terminate()
        else:
            pool.shutdown(wait=True, cancel_futures=True)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("OptimizerSession is closed")

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Workers start with no LP memo installed: a forked worker
            # would otherwise inherit the memo of the thread that forks
            # it (the installation is thread-local), and its tasks
            # would not run on their own run's memo.
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self.mp_context,
                initializer=install_shared_lp_cache, initargs=(None,))
            self.pool_spawns += 1
        return self._pool

    def _discard_broken_pool(self) -> None:
        """Drop a broken pool so the next call can respawn one.

        A worker killed hard (OOM, segfault) breaks the whole
        :class:`ProcessPoolExecutor`; unlike the per-batch pools of the
        legacy engine, a persistent pool must recover explicitly or every
        later call would fail forever.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _recycle_pool(self) -> None:
        """Terminate workers stuck on overdue tasks and drop the pool.

        Called after a deadline miss caught tasks still *executing*:
        cancellation cannot stop them, and leaving them running would
        both leak CPU and shrink the capacity every later call sees.  The
        next pooled call respawns a fresh pool lazily.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = dict(getattr(pool, "_processes", None) or {})
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes.values():
            process.terminate()

    # ------------------------------------------------------------------
    # Submission plumbing
    # ------------------------------------------------------------------

    def _scenario_name(self, scenario: str | None) -> str:
        name = scenario if scenario is not None else self.scenario
        self.registry.get(name)  # raise early for unknown names
        return name

    def _signature(self, query: Query, scenario_name: str,
                   options: PWLRRPAOptions | None = None) -> str:
        return query_signature(
            query, scenario=scenario_name, resolution=self.resolution,
            options=options if options is not None else self.options)

    def _target_alpha(self) -> float:
        """Alpha the session's configured options optimize to."""
        return (self.options.approximation_factor
                if self.options is not None else 0.0)

    def _anytime_options(self, target: float) -> PWLRRPAOptions:
        """Session options re-targeted to an anytime precision.

        Signatures derive from these, so an anytime run to completion
        shares warm-start entries with a plain session configured at the
        same approximation factor.
        """
        return replace(self.options or PWLRRPAOptions(),
                       approximation_factor=float(target))

    def _shipped_scenario(self, scenario_name: str):
        """Scenario object to embed in task payloads (memoized).

        In-process tasks take the registry's :class:`Scenario` as is:
        nothing is pickled, so unpicklable registrations work.  For the
        pool, returns the scenario when it pickles — workers then use it
        directly, independent of their own registry state (spawn-safe) —
        and ``None`` when it does not, selecting the worker-side by-name
        fallback.  The picklability decision is memoized per *scenario
        instance*, so re-registering a name with ``replace=True``
        mid-session is picked up.
        """
        scenario = self.registry.get(scenario_name)
        if self.workers <= 1:
            return scenario
        cached = self._ship_cache.get(scenario_name)
        if cached is None or cached[0] is not scenario:
            try:
                pickle.dumps(scenario)
            except Exception:  # reprolint: disable=REP601
                # Unpicklable registration: by-name worker fallback.
                cached = (scenario, None)
            else:
                cached = (scenario, scenario)
            self._ship_cache[scenario_name] = cached
        return cached[1]

    def _cached_item(self, index: int, signature: str,
                     scenario_name: str,
                     max_alpha: float | None = None) -> BatchItem | None:
        """Warm-start lookup; ``None`` on miss or undecodable entry.

        ``max_alpha`` (default: the session's configured approximation
        factor) is the loosest guarantee tag the caller accepts — an
        entry left behind by an interrupted anytime run never serves a
        request for a tighter precision.
        """
        if not self.warm_start:
            return None
        if max_alpha is None:
            max_alpha = self._target_alpha()
        # The cache decodes an entry once and hands every later hit the
        # same read-only plan set; an undecodable entry is a miss.
        plan_set = self.cache.load(signature, max_alpha=max_alpha)
        if plan_set is None:
            return None
        return BatchItem(index=index, signature=signature, status="cached",
                         plan_set=plan_set, scenario=scenario_name,
                         alpha=plan_set.alpha,
                         guarantee=plan_set.guarantee)

    def _store_seed(self, query: Query, signature: str,
                    scenario_name: str, options,
                    ladder: tuple) -> dict | None:
        """Similar-query seed lookup in the persistent store tier.

        Runs on anytime cache misses.  Registers the query's family
        metadata (so the eventual ``cache.put`` write-through can attach
        it to the stored row), then asks the store for the same-family
        entry with the nearest statistics feature vector.  Returns a
        picklable seed spec — the neighbor's plan-tree documents plus
        the chosen seeding breadth (see :meth:`_seed_breadth`), ready to
        embed in a pooled payload — or ``None`` when no store is
        configured, warm starts are off, the ladder has no coarse rung
        to seed, or the store has no neighbor.
        """
        store = getattr(self.cache, "store", None)
        if (store is None or not self.warm_start
                or not ladder or ladder[0] <= 0):
            return None
        effective = options if options is not None else self.options
        try:
            family = family_digest(query, scenario=scenario_name,
                                   resolution=self.resolution,
                                   options=effective)
            features = signature_features(query)
            store.register(signature, family=family,
                           scenario=scenario_name,
                           stats_digest=statistics_digest(query),
                           num_tables=query.num_tables,
                           num_params=max(1, query.num_params),
                           features=features)
            rows = store.nearest(family, features, limit=1,
                                 exclude_signature=signature)
        except Exception:  # reprolint: disable=REP601
            return None  # store unavailable: run cold
        if not rows:
            self.store_seed_misses += 1
            return None
        self.store_seed_hits += 1
        document = rows[0]["document"]
        return {"plans": [entry["plan"]
                          for entry in document.get("entries", [])],
                "cap": self._seed_breadth(document)}

    def _seed_breadth(self, document: dict) -> int | None:
        """Per-table-set seed cap for a run seeded from ``document``.

        Seeding breadth is all-or-one (partial breadths measure as the
        worst of both — insertion cost without complete-frontier
        pruning): adopt the neighbor's whole frontier (``None``) when
        its recorded repair cost says the enumeration is expensive
        enough to amortize the quadratic installation, otherwise install
        one near-free incumbent per table set
        (:data:`repro.core.run.DEFAULT_SEED_CAP`).
        """
        try:
            repair = float(document.get("repair_lps") or 0.0)
        except (TypeError, ValueError):
            repair = 0.0
        return None if repair >= SEED_ALL_IN_LPS else DEFAULT_SEED_CAP

    def _ok_item(self, index: int, signature: str, scenario_name: str,
                 outcome: dict, stats: dict,
                 seconds: float) -> BatchItem:
        """Build a result item, feeding the warm-start cache."""
        status = outcome.get("status", "ok")
        doc = outcome.get("doc")
        trail = outcome.get("trail", ())
        events = tuple(_event_from_doc(event_doc) for event_doc in trail)
        if doc is None:  # anytime run whose budget beat the first rung
            item = self._error_item(
                index, signature, scenario_name, "timeout",
                "budget exhausted before the first ladder rung")
            item.events = events
            return item
        alpha = float(outcome.get("alpha") or 0.0)
        # An anytime outcome's document is its last rung's, which that
        # rung's event has decoded already (pickling keeps the two
        # references one object); anything else is decoded here.
        plan_set = None
        for event_doc, event in zip(trail, events):
            if event_doc.get("rung", {}).get("doc") is doc:
                plan_set = event.plan_set
        if plan_set is None:
            plan_set = decode_plan_set(doc)
        if self.warm_start:
            # The cache entry keeps this decoded set, so the first hit
            # does not decode the document again.
            _tag_repair_cost(doc, (stats or {}).get("lps_solved"))
            self.cache.put(signature, doc, alpha=alpha, plan_set=plan_set)
        if stats:
            self.lp_cache_hits_total += int(
                stats.get("lp_cache_hits", 0))
        return BatchItem(index=index, signature=signature, status=status,
                         plan_set=plan_set, stats=stats,
                         seconds=seconds, scenario=scenario_name,
                         alpha=alpha,
                         guarantee=float(outcome.get("guarantee") or 1.0),
                         events=events)

    def _error_item(self, index: int, signature: str, scenario_name: str,
                    status: str, error: str) -> BatchItem:
        return BatchItem(index=index, signature=signature, status=status,
                         error=error, scenario=scenario_name)

    def _executor(self) -> Executor:
        """Where tasks run: the calling thread for serial sessions, the
        persistent process pool otherwise."""
        if self.workers > 1:
            return self._ensure_pool()
        return _InProcessExecutor(self.lp_memo)

    def _submit(self, index: int, signature: str, scenario_name: str,
                query: Query, options: PWLRRPAOptions | None = None,
                anytime: dict | None = None
                ) -> tuple[Future, Future | None]:
        """Submit one optimization task to the session's executor.

        Returns ``(item_future, raw_future)``; the item future resolves
        to a :class:`BatchItem` (never raises), the raw future is the
        executor handle (``None`` when submission itself failed) kept for
        deadline-driven cancellation.  In-process tasks have run, and
        both futures are resolved, by the time this returns.
        """
        item_future: Future = Future()
        payload = (index, scenario_name,
                   self._shipped_scenario(scenario_name), query,
                   self.resolution,
                   options if options is not None else self.options,
                   anytime)
        try:
            raw = self._executor().submit(_optimize_payload, payload)
        except BrokenProcessPool:
            # A previously crashed worker broke the pool; respawn once
            # and retry so one hard crash does not poison the session.
            self._discard_broken_pool()
            self.pool_respawns += 1
            try:
                raw = self._executor().submit(_optimize_payload, payload)
            except Exception as exc:  # reprolint: disable=REP601
                item_future.set_result(self._error_item(
                    index, signature, scenario_name, "error",
                    f"{type(exc).__name__}: {exc}"))
                return item_future, None
        except Exception as exc:  # reprolint: disable=REP601
            # E.g. an unpicklable query: reported as an error item.
            item_future.set_result(self._error_item(
                index, signature, scenario_name, "error",
                f"{type(exc).__name__}: {exc}"))
            return item_future, None

        def _complete(done: Future) -> None:
            # Runs on the pool's collector thread, or in the calling
            # thread for in-process tasks.  Late results of timed-out
            # items land here too — they still feed the warm-start cache
            # via _ok_item.  Payload exceptions and undecodable outcomes
            # become error items (per-query error isolation).
            try:
                if done.cancelled():
                    item = self._error_item(
                        index, signature, scenario_name, "timeout",
                        "cancelled before execution")
                else:
                    exc = done.exception()
                    if exc is not None:
                        item = self._error_item(
                            index, signature, scenario_name, "error",
                            f"{type(exc).__name__}: {exc}")
                    else:
                        __, outcome, stats, seconds = done.result()
                        item = self._ok_item(index, signature,
                                             scenario_name, outcome,
                                             stats, seconds)
                item_future.set_result(item)
            except Exception as exc:  # reprolint: disable=REP601
                # Decoding/caching failure: reported as an error item.
                item_future.set_result(self._error_item(
                    index, signature, scenario_name, "error",
                    f"{type(exc).__name__}: {exc}"))

        raw.add_done_callback(_complete)
        return item_future, raw

    # ------------------------------------------------------------------
    # Public submission surface
    # ------------------------------------------------------------------

    def submit(self, query: Query, *, scenario: str | None = None,
               index: int = 0) -> Future:
        """Submit one query; returns a future resolving to a
        :class:`BatchItem`.

        The future never raises for optimization failures — errors are
        reported in the item's ``status``/``error`` fields.  Warm-start
        hits resolve immediately.

        Raises:
            RuntimeError: If the session is closed.
            KeyError: For unknown scenario names.
        """
        self._check_open()
        scenario_name = self._scenario_name(scenario)
        signature = self._signature(query, scenario_name)
        cached = self._cached_item(index, signature, scenario_name)
        if cached is not None:
            future: Future = Future()
            future.set_result(cached)
            return future
        item_future, __ = self._submit(index, signature, scenario_name,
                                       query)
        return item_future

    def as_completed(self, queries: Sequence[Query], *,
                     scenario: str | None = None
                     ) -> Iterator[BatchItem]:
        """Optimize ``queries``, yielding items as they finish.

        Duplicate queries (same signature) within the call are optimized
        once; followers are yielded right after their leader as
        ``"cached"`` items.  With a ``timeout_seconds`` deadline, items
        not finished in time are yielded as ``"timeout"`` without tearing
        the pool down.  Every input query yields exactly one item.

        Raises:
            RuntimeError: If the session is closed.
            KeyError: For unknown scenario names.
        """
        self._check_open()
        scenario_name = self._scenario_name(scenario)
        # Plan the batch: warm hits are answered at once from the cache's
        # decoded plan sets, one leader is kept per distinct signature,
        # in-batch duplicates become followers of their leader.
        hits: list[BatchItem] = []
        leaders: list[tuple[int, str, Query]] = []
        followers: dict[int, list[int]] = {}
        seen: dict[str, int] = {}
        for index, query in enumerate(queries):
            signature = self._signature(query, scenario_name)
            cached = self._cached_item(index, signature, scenario_name)
            if cached is not None:
                hits.append(cached)
            elif self.warm_start and signature in seen:
                # In-batch duplicate: optimize once, share the result.
                # Gated on warm_start like the cross-batch cache, so
                # warm_start=False keeps forcing every copy to optimize
                # (the legacy contract; benchmarks rely on it).
                followers.setdefault(seen[signature], []).append(index)
            else:
                seen[signature] = index
                leaders.append((index, signature, query))
        # Warm hits are complete already — yield them first.
        yield from hits
        yield from self._drain(leaders, followers, scenario_name)

    def _follower_items(self, item: BatchItem, follower_indexes: list[int],
                        scenario_name: str) -> Iterator[BatchItem]:
        for follower in follower_indexes:
            if item.ok:
                # Plan sets are read-only at run time, so leader and
                # followers can share one decoded instance.
                yield BatchItem(index=follower, signature=item.signature,
                                status="cached", plan_set=item.plan_set,
                                scenario=scenario_name)
            else:
                yield self._error_item(follower, item.signature,
                                       scenario_name, item.status,
                                       item.error or "")

    def _drain(self, leaders: list[tuple], followers: dict,
               scenario_name: str) -> Iterator[BatchItem]:
        """Yield one item per leader (plus its followers), streaming.

        The drain window is how many leaders are submitted at once.  The
        pool gets every leader up front.  The in-process executor gets
        one at a time, run when the consumer asks for the next item: items
        then come out in input order, one as it finishes, and an
        abandoned iterator stops optimizing.
        """
        deadline = (None if self.timeout_seconds is None
                    else time.monotonic() + self.timeout_seconds)
        window = max(len(leaders), 1) if self.workers > 1 else 1
        for start in range(0, len(leaders), window):
            in_flight: dict[Future, tuple[int, str, Future | None]] = {}
            for index, signature, query in leaders[start:start + window]:
                item_future, raw = self._submit(index, signature,
                                                scenario_name, query)
                in_flight[item_future] = (index, signature, raw)
            try:
                remaining = (None if deadline is None
                             else max(0.0, deadline - time.monotonic()))
                # Finished futures are yielded before any wait, so
                # in-process items never time out.
                for done in _futures_as_completed(in_flight,
                                                  timeout=remaining):
                    index, signature, __ = in_flight.pop(done)
                    item = done.result()  # never raises; a BatchItem
                    yield item
                    yield from self._follower_items(
                        item, followers.get(index, ()), scenario_name)
            except FutureTimeoutError:
                self._timed_out = True
                still_running = False
                for index, signature, raw in in_flight.values():
                    # Unstarted tasks are cancelled to free the pool; a
                    # task a worker is already executing cannot be
                    # stopped that way and forces a pool recycle below.
                    if raw is not None and not raw.cancel() and (
                            not raw.done()):
                        still_running = True
                    item = self._error_item(
                        index, signature, scenario_name, "timeout",
                        f"no result within {self.timeout_seconds}s of "
                        f"call start")
                    yield item
                    yield from self._follower_items(
                        item, followers.get(index, ()), scenario_name)
                if still_running:
                    self._recycle_pool()
                self._timed_out = False

    def map(self, queries: Sequence[Query], *,
            scenario: str | None = None) -> list[BatchItem]:
        """Optimize ``queries``, returning one item per query, in order.

        Deterministic: results are indexed by input position regardless
        of completion order (the legacy ``optimize_batch`` contract).
        """
        items: list[BatchItem | None] = [None] * len(queries)
        for item in self.as_completed(queries, scenario=scenario):
            items[item.index] = item
        return [item for item in items if item is not None]

    def optimize(self, query: Query, *, scenario: str | None = None,
                 precision: float | None = None,
                 budget: Budget | None = None,
                 precision_ladder=None) -> BatchItem:
        """Optimize one query synchronously.

        Without anytime arguments this is sugar for ``map([query])`` —
        the exact-mode contract, bit-identical to the pre-anytime
        engine.  With ``precision`` and/or ``budget`` it becomes an
        *anytime* call:

        * ``precision=alpha`` targets a ``(1 + alpha)``-approximate
          Pareto set (``0.0`` = exact) instead of the session's
          configured approximation factor;
        * ``budget`` bounds the run cooperatively (checked at DP step
          boundaries — workers stop themselves, no pool teardown); when
          it expires, the best *completed* ladder rung is returned as a
          ``"partial"`` item with its achieved ``alpha``/``guarantee``,
          or ``"timeout"`` if no rung completed;
        * ``precision_ladder`` overrides the rung sequence (default:
          :data:`repro.core.run.DEFAULT_PRECISION_LADDER` truncated at
          the target when a budget is set, a single target rung
          otherwise).

        Works identically on the serial and pooled paths.
        """
        if precision is None and budget is None and (
                precision_ladder is None):
            (item,) = self.map([query], scenario=scenario)
            return item
        return self._optimize_anytime(query, scenario, precision,
                                      budget, precision_ladder)

    def _resolve_ladder(self, precision: float | None, budget,
                        precision_ladder) -> tuple[float, ...]:
        """Pick the rung sequence for an anytime call.

        An explicit ladder wins.  Otherwise a budgeted call descends the
        default ladder to the target (coarse rungs first, so a guarantee
        exists as early as possible), while an unbudgeted call jumps
        straight to the target in one rung.
        """
        if precision_ladder is not None:
            ladder = validate_ladder(precision_ladder)
            if precision is not None and ladder[-1] != float(precision):
                raise ValueError(
                    f"precision_ladder must end at precision="
                    f"{precision}, got {ladder}")
            return ladder
        target = float(precision) if precision is not None else 0.0
        if budget is not None:
            return ladder_to(target)
        return (target,)

    def _optimize_anytime(self, query: Query, scenario: str | None,
                          precision: float | None,
                          budget: Budget | None, precision_ladder
                          ) -> BatchItem:
        """Anytime path behind :meth:`optimize`."""
        self._check_open()
        scenario_name = self._scenario_name(scenario)
        ladder = self._resolve_ladder(precision, budget, precision_ladder)
        target = ladder[-1]
        options = self._anytime_options(target)
        signature = self._signature(query, scenario_name, options=options)
        cached = self._cached_item(0, signature, scenario_name,
                                   max_alpha=target)
        if cached is not None:
            return cached
        anytime = self._anytime_payload(
            query, signature, scenario_name, options, ladder, budget,
            trim=precision_ladder is None)
        item_future, raw = self._submit(0, signature, scenario_name, query,
                                        options=options, anytime=anytime)
        # The cooperative budget is the primary bound, but the session
        # deadline still backstops a hung worker — same semantics as
        # map(): report "timeout", recycle a worker caught still
        # executing, keep the session usable.
        try:
            return item_future.result(timeout=self.timeout_seconds)
        except FutureTimeoutError:
            if raw is not None and not raw.cancel() and not raw.done():
                self._recycle_pool()
            return self._error_item(
                0, signature, scenario_name, "timeout",
                f"no result within {self.timeout_seconds}s of call start")

    def _anytime_payload(self, query: Query, signature: str,
                         scenario_name: str, options, ladder: tuple,
                         budget: Budget | None, *, trim: bool) -> dict:
        """The anytime part of a task payload: ladder, budget, seed.

        Looks up a similar-query seed in the store.  A seeded run whose
        ladder the caller did not choose (``trim``) skips the coarse
        rungs (:func:`~repro.core.run.trim_ladder_for_seed`): with
        near-optimal incumbents already in the DP table, the protective
        rungs no longer pay for themselves, and the run jumps straight
        to the tightest approximate rung and then the target — the
        measured source of the warm-start speedup (seeds alone merely
        break even on LPs), see ``docs/plan-store.md``.
        """
        seed = self._store_seed(query, signature, scenario_name, options,
                                ladder)
        if seed and trim:
            ladder = trim_ladder_for_seed(ladder)
        anytime = {"ladder": ladder,
                   "budget": budget.as_dict() if budget else None}
        if seed:
            anytime["seed"] = seed
        return anytime

    # ------------------------------------------------------------------
    # Event streaming (optimize_iter)
    # ------------------------------------------------------------------

    def _decode_live_event(self, doc: dict, signature: str
                           ) -> ProgressEvent:
        """Rebuild one streamed event; feed the warm-start cache.

        Every completed rung's plan set goes into the cache under its
        alpha tag the moment it exists, and the ``rung_completed`` event
        carries the decoded set — the same instance the cache entry
        keeps.
        """
        event = _event_from_doc(doc)
        rung = doc.get("rung")
        if rung is not None and self.warm_start:
            _tag_repair_cost(rung["doc"], doc["event"]["lps_solved"])
            self.cache.put(signature, rung["doc"],
                           alpha=float(rung["alpha"]),
                           plan_set=event.plan_set)
        return event

    def optimize_iter(self, query: Query, *,
                      scenario: str | None = None,
                      precision_ladder=None,
                      budget: Budget | None = None
                      ) -> Iterator[ProgressEvent]:
        """Stream an anytime run's progress as it tightens.

        Yields :class:`~repro.core.run.ProgressEvent` objects; every
        ``"rung_completed"`` event carries the rung's decoded plan set
        (``event.plan_set``) with its ``alpha``/``guarantee``, so a
        consumer can start serving from the first (coarsest) rung while
        later rungs refine.  Each rung warm-starts from the previous
        rung's DP work (plan-cost memo + LP memo), so the ladder costs
        far less than independent runs.

        Every session, serial or pooled, steps the run in the calling
        thread, one DP level at a time as the consumer asks for events,
        so events are live by construction and an abandoned iterator
        stops optimizing.  The worker count plays no part: a pooled session
        spawns no pool for a stream, and its ``timeout_seconds`` does
        not apply (bound the stream with ``budget``).  One ``budget``
        window spans the whole ladder.

        Args:
            query: The query to optimize.
            scenario: Scenario name override.
            precision_ladder: Strictly decreasing alphas; defaults to
                :data:`repro.core.run.DEFAULT_PRECISION_LADDER`.
            budget: Cooperative budget over the whole iteration.

        Raises:
            OptimizationError: If the run fails.
        """
        self._check_open()
        scenario_name = self._scenario_name(scenario)
        ladder = validate_ladder(
            precision_ladder if precision_ladder is not None
            else ladder_to(self._target_alpha()))
        target = ladder[-1]
        options = self._anytime_options(target)
        signature = self._signature(query, scenario_name, options=options)
        cached = self._cached_item(0, signature, scenario_name,
                                   max_alpha=target)
        if cached is not None:
            # A warm plan set at (or tighter than) the target: the whole
            # ladder collapses to one already-completed rung.
            yield ProgressEvent(
                kind="rung_completed", rung=len(ladder) - 1,
                alpha=cached.alpha, guarantee=cached.guarantee,
                plan_count=len(cached.plan_set.entries),
                units_done=0, units_total=0, lps_solved=0, seconds=0.0,
                plan_set=cached.plan_set)
            return
        anytime = self._anytime_payload(
            query, signature, scenario_name, options, ladder, budget,
            trim=precision_ladder is None)
        for doc in self._in_process_event_docs(query, scenario_name,
                                               options, anytime):
            yield self._decode_live_event(doc, signature)

    def _in_process_event_docs(self, query: Query, scenario_name: str,
                               options, anytime: dict) -> Iterator[dict]:
        """Event documents of a run stepped in the calling thread.

        The session LP memo is installed only while the run is built:
        the run's solver takes it then and reads and feeds it from there
        on.  Between yields the thread has its own memo back, so an
        optimization the consumer runs there meanwhile neither reads nor
        feeds the session's.  A finished stream adds its memo hits to
        :attr:`lp_cache_hits_total`, as an item does.
        """
        try:
            with _memo_installed(self.lp_memo):
                run = _start_run(self.registry.get(scenario_name), query,
                                 self.resolution, options, anytime)
            for event in run.iter_run(Budget.from_dict(anytime["budget"])):
                yield _event_doc(run, event)
        except Exception as exc:
            raise OptimizationError(
                f"anytime run failed: {type(exc).__name__}: {exc}"
            ) from exc
        result = run.result()
        if result is not None:
            self.lp_cache_hits_total += result.stats.lp_stats.cache_hits
