"""Sweep runner for the Figure 12 reproduction — plus batch throughput.

Runs PWL-RRPA over the workloads of :mod:`repro.bench.workloads`, collects
the three measurements of Figure 12 per query (optimization time, #created
plans, #solved LPs), and aggregates medians per sweep point exactly as the
paper does ("Each data point corresponds to the median of 25 randomly
generated test cases").

Three serving benchmarks extend the harness beyond the paper — all three
run any registered scenario (``--scenario cloud`` / ``approx`` / custom):

* :func:`run_batch_throughput` sweeps batched optimization over worker
  counts and query sizes, reporting sustained queries/second;
* :func:`run_streaming_throughput` drives
  :meth:`repro.api.OptimizerSession.as_completed` and additionally
  reports time-to-first-result, the latency a streaming consumer sees;
* :func:`run_pool_comparison` pits a cold-pool regime (spawn and tear
  down workers per batch) against one persistent session pool over the
  same sequence of batches.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from ..core import PWLRRPA, PWLRRPAOptions
from ..cloud import CloudCostModel
from .workloads import SweepPoint, SweepProfile, queries_for_point, \
    sweep_points


#: Backend configuration matching the paper's implementation for the
#: Figure 12 measurements: no LP memo, so every LP request is a solve and
#: the "#solved linear programs" panel stays comparable to the paper
#: (memo hits are not counted as solved LPs).  The plan sets are the
#: same with the memo on.
PAPER_FAITHFUL = PWLRRPAOptions(lp_cache_size=0)


@dataclass(frozen=True)
class Measurement:
    """Raw measurements for one optimized query.

    Attributes:
        point: The sweep point the query belongs to.
        seconds: Optimization wall-clock time.
        plans_created: Plans generated (incl. pruned ones).
        lps_solved: Linear programs solved.
        pareto_plans: Size of the final Pareto plan set.
        lp_seconds: Wall time spent inside LP backends.
        emptiness_lp_seconds: LP wall time of the region-emptiness cost
            center (the ``emptiness`` + ``chebyshev`` purposes) — the
            quantity the batched geometry kernels shrink.
    """

    point: SweepPoint
    seconds: float
    plans_created: int
    lps_solved: int
    pareto_plans: int
    lp_seconds: float = 0.0
    emptiness_lp_seconds: float = 0.0


@dataclass(frozen=True)
class AggregatedPoint:
    """Median measurements at one sweep point (one x-value of Figure 12).

    Attributes:
        point: The sweep point.
        median_seconds / median_plans / median_lps: Medians over the
            random queries, as plotted in Figure 12.
        samples: Number of queries aggregated.
    """

    point: SweepPoint
    median_seconds: float
    median_plans: float
    median_lps: float
    samples: int


def run_query_measurement(query, point: SweepPoint,
                          options: PWLRRPAOptions | None = None
                          ) -> Measurement:
    """Optimize one query and extract the Figure 12 measurements.

    Args:
        query: The query to optimize.
        point: Sweep point providing the cost-model resolution.
        options: Backend options; defaults to :data:`PAPER_FAITHFUL` so
            the #LPs panel reproduces the paper's algorithm (pass
            ``PWLRRPAOptions()`` to measure the engine with its LP memo).
    """
    optimizer = PWLRRPA(
        cost_model_factory=lambda q: CloudCostModel(
            q, resolution=point.resolution),
        options=options if options is not None else PAPER_FAITHFUL)
    result = optimizer.optimize(query)
    stats = result.stats
    return Measurement(point=point, seconds=stats.optimization_seconds,
                       plans_created=stats.plans_created,
                       lps_solved=stats.lps_solved,
                       pareto_plans=len(result.entries),
                       lp_seconds=stats.lp_seconds,
                       emptiness_lp_seconds=stats.emptiness_lp_seconds)


def run_point(point: SweepPoint, queries_per_point: int,
              options: PWLRRPAOptions | None = None,
              base_seed: int = 0) -> AggregatedPoint:
    """Run all random queries of one sweep point and aggregate medians.

    Paper: Section 7, one point of the Figure 12 sweep;
    examples/figure12.py and the nightly benchmarks run it.
    """
    measurements = [
        run_query_measurement(query, point, options=options)
        for query in queries_for_point(point, queries_per_point,
                                       base_seed=base_seed)]
    return AggregatedPoint(
        point=point,
        median_seconds=statistics.median(m.seconds for m in measurements),
        median_plans=statistics.median(
            m.plans_created for m in measurements),
        median_lps=statistics.median(m.lps_solved for m in measurements),
        samples=len(measurements))


def run_sweep(profile: SweepProfile, shape: str,
              options: PWLRRPAOptions | None = None,
              base_seed: int = 0) -> list[AggregatedPoint]:
    """Run the full sweep of one Figure 12 column (chain or star).

    Paper: Section 7, the Figure 12 sweep; examples/figure12.py and the
    nightly benchmarks run it.
    """
    return [run_point(point, profile.queries_per_point, options=options,
                      base_seed=base_seed)
            for point in sweep_points(profile, shape)]


# ----------------------------------------------------------------------
# Batch-engine throughput sweep
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ThroughputPoint:
    """Throughput of the batch engine at one (workers, query size) point.

    Attributes:
        workers: Worker processes (``<= 1`` means in-process serial).
        num_tables: Tables per query.
        shape: Join graph shape of the workload.
        queries: Number of distinct queries optimized.
        seconds: Wall-clock time for the whole batch.
        qps: Sustained queries per second (``queries / seconds``).
        failures: Items that did not produce a plan set.
        scenario: Scenario the workload was optimized under.
        pool: Pool regime — ``"cold"`` spawns and tears down workers per
            batch (the legacy engine), ``"persistent"`` reuses one
            session pool across batches.
    """

    workers: int
    num_tables: int
    shape: str
    queries: int
    seconds: float
    qps: float
    failures: int
    scenario: str = "cloud"
    pool: str = "cold"

    def as_dict(self) -> dict:
        """JSON-ready representation (used by the CI bench artifact)."""
        return {"workers": self.workers, "num_tables": self.num_tables,
                "shape": self.shape, "queries": self.queries,
                "seconds": self.seconds, "qps": self.qps,
                "failures": self.failures, "scenario": self.scenario,
                "pool": self.pool}


def _workload(num_tables: int, shape: str, num_queries: int,
              base_seed: int) -> list:
    from ..query import QueryGenerator
    return [
        QueryGenerator(seed=base_seed + i).generate(
            num_tables=num_tables, shape=shape, num_params=1)
        for i in range(num_queries)]


def run_batch_throughput(num_tables: int = 4, shape: str = "chain",
                         num_queries: int = 8,
                         workers_list: tuple[int, ...] = (1, 2, 4),
                         resolution: int = 2,
                         options: PWLRRPAOptions | None = None,
                         base_seed: int = 0,
                         scenario: str = "cloud") -> list[ThroughputPoint]:
    """Measure batch throughput across worker counts.

    Every worker count optimizes the *same* list of distinct random
    queries (a fresh :class:`repro.api.OptimizerSession` each, closed
    after the batch, with warm-start disabled) so points differ only in
    parallelism.

    Args:
        num_tables: Tables per generated query.
        shape: Join graph shape.
        num_queries: Distinct queries per point.
        workers_list: Worker counts to sweep (``<= 1`` is the
            single-process baseline).
        resolution: Cost-model PWL resolution.
        options: Backend options for every optimization.
        base_seed: Seed offset for query generation.
        scenario: Registered scenario name to optimize under.
    """
    from ..service import OptimizerSession

    queries = _workload(num_tables, shape, num_queries, base_seed)
    points = []
    for workers in workers_list:
        with OptimizerSession(scenario, workers=workers,
                              resolution=resolution, options=options,
                              warm_start=False) as session:
            started = time.perf_counter()
            items = session.map(queries)
            seconds = time.perf_counter() - started
        failures = sum(1 for item in items if not item.ok)
        points.append(ThroughputPoint(
            workers=workers, num_tables=num_tables, shape=shape,
            queries=len(queries), seconds=seconds,
            qps=len(queries) / seconds if seconds > 0 else float("inf"),
            failures=failures, scenario=scenario))
    return points


@dataclass(frozen=True)
class StreamingPoint:
    """Streaming-mode throughput of one session at one configuration.

    Attributes:
        workers: Worker processes (``<= 1`` means in-process serial).
        num_tables: Tables per query.
        shape: Join graph shape of the workload.
        scenario: Scenario the workload was optimized under.
        queries: Number of distinct queries streamed.
        seconds: Wall clock from submission to the last yielded result.
        first_result_seconds: Wall clock until the *first* result was
            yielded — the latency a streaming consumer sees.
        qps: Sustained queries per second.
        failures: Items that did not produce a plan set.
    """

    workers: int
    num_tables: int
    shape: str
    scenario: str
    queries: int
    seconds: float
    first_result_seconds: float
    qps: float
    failures: int

    def as_dict(self) -> dict:
        """JSON-ready representation (used by the CI bench artifact)."""
        return {"workers": self.workers, "num_tables": self.num_tables,
                "shape": self.shape, "scenario": self.scenario,
                "queries": self.queries, "seconds": self.seconds,
                "first_result_seconds": self.first_result_seconds,
                "qps": self.qps, "failures": self.failures}


def run_streaming_throughput(num_tables: int = 4, shape: str = "chain",
                             num_queries: int = 8, workers: int = 0,
                             resolution: int = 2,
                             options: PWLRRPAOptions | None = None,
                             base_seed: int = 0,
                             scenario: str = "cloud") -> StreamingPoint:
    """Measure streaming throughput of ``OptimizerSession.as_completed``.

    Results are consumed as they finish; besides queries/second the
    point records the time until the first result arrived, which batch
    mode cannot improve on (it holds everything until the batch ends).
    """
    from ..service import OptimizerSession

    queries = _workload(num_tables, shape, num_queries, base_seed)
    failures = 0
    first = None
    with OptimizerSession(scenario, workers=workers,
                          resolution=resolution, options=options,
                          warm_start=False) as session:
        started = time.perf_counter()
        for item in session.as_completed(queries):
            if first is None:
                first = time.perf_counter() - started
            if not item.ok:
                failures += 1
        seconds = time.perf_counter() - started
    return StreamingPoint(
        workers=workers, num_tables=num_tables, shape=shape,
        scenario=scenario, queries=len(queries), seconds=seconds,
        first_result_seconds=first if first is not None else seconds,
        qps=len(queries) / seconds if seconds > 0 else float("inf"),
        failures=failures)


@dataclass(frozen=True)
class AnytimeRungPoint:
    """Aggregated measurements of one precision-ladder rung.

    All values are summed over the point's queries.  The LP and plan
    counters are deterministic (stable CRC-seeded workloads), so they
    join the gated CI perf baseline; timings are informational.

    Attributes:
        rung: Ladder position (0 = coarsest).
        alpha: The rung's approximation factor.
        guarantee: End-to-end ``(1 + alpha) ** tables`` cost bound.
        lps_solved: LPs solved by the time the rung completed
            (cumulative within each run, summed over queries).
        plan_count: Final Pareto-set sizes at this rung, summed.
        seconds: Wall-clock seconds to reach the rung's completion
            (cumulative within each run, summed over queries).
    """

    rung: int
    alpha: float
    guarantee: float
    lps_solved: int
    plan_count: int
    seconds: float

    def as_dict(self) -> dict:
        """JSON-ready representation (used by the CI bench artifact)."""
        return {"rung": self.rung, "alpha": self.alpha,
                "guarantee": self.guarantee,
                "lps_solved": self.lps_solved,
                "plan_count": self.plan_count, "seconds": self.seconds}


@dataclass(frozen=True)
class AnytimeLadderReport:
    """Time-to-first-guarantee benchmark of the anytime engine.

    Compares a full precision-ladder run (coarse rungs first, each rung
    warm-starting the next) against the direct exact run for the same
    queries: how quickly is the *first* guaranteed plan set available,
    and what does the ladder's warm-starting save on the way to exact?

    Attributes:
        scenario / shape / num_tables / queries: Workload description.
        ladder: The precision ladder swept.
        rungs: Per-rung aggregates (see :class:`AnytimeRungPoint`).
        first_guarantee_seconds: Summed wall-clock until the coarsest
            rung completed — the latency to the first valid guarantee.
        ladder_seconds: Summed wall-clock for the whole ladder.
        ladder_lps: Summed LPs solved by the whole ladder.
        direct_seconds: Summed wall-clock of the direct exact runs.
        direct_lps: Summed LPs solved by the direct exact runs.
    """

    scenario: str
    shape: str
    num_tables: int
    queries: int
    ladder: tuple[float, ...]
    rungs: tuple[AnytimeRungPoint, ...]
    first_guarantee_seconds: float
    ladder_seconds: float
    ladder_lps: int
    direct_seconds: float
    direct_lps: int

    def as_dict(self) -> dict:
        """JSON-ready representation (used by the CI bench artifact)."""
        return {"scenario": self.scenario, "shape": self.shape,
                "num_tables": self.num_tables, "queries": self.queries,
                "ladder": list(self.ladder),
                "rungs": [r.as_dict() for r in self.rungs],
                "first_guarantee_seconds": self.first_guarantee_seconds,
                "ladder_seconds": self.ladder_seconds,
                "ladder_lps": self.ladder_lps,
                "direct_seconds": self.direct_seconds,
                "direct_lps": self.direct_lps}


def run_anytime_ladder(num_tables: int = 4, shape: str = "chain",
                       num_queries: int = 3, resolution: int = 2,
                       scenario: str = "cloud",
                       ladder: tuple[float, ...] | None = None,
                       base_seed: int = 0) -> AnytimeLadderReport:
    """Measure time-to-first-guarantee over a precision ladder.

    Each query runs once through the full ladder (collecting per-rung
    completion times, plan counts and LP counters from the run's
    progress events) and once through the direct exact path for
    comparison.  Workload seeds are stable CRC32 digests (see
    :func:`repro.bench.workloads.queries_for_point`), so the counter
    aggregates are machine-independent and join the CI perf baseline.
    """
    from ..core.run import DEFAULT_PRECISION_LADDER, guarantee_bound
    from ..service.registry import get_scenario

    if ladder is None:
        ladder = DEFAULT_PRECISION_LADDER
    ladder = tuple(float(a) for a in ladder)
    point = SweepPoint(num_tables=num_tables, shape=shape, num_params=1,
                       resolution=resolution)
    queries = queries_for_point(point, num_queries, base_seed=base_seed)
    scn = get_scenario(scenario)
    rung_lps = [0] * len(ladder)
    rung_plans = [0] * len(ladder)
    rung_seconds = [0.0] * len(ladder)
    first_guarantee = 0.0
    ladder_seconds = 0.0
    ladder_lps = 0
    direct_seconds = 0.0
    direct_lps = 0
    for query in queries:
        run = scn.start_run(query, resolution=resolution,
                            precision_ladder=ladder)
        run.run()
        completions = [event for event in run.events
                       if event.kind == "rung_completed"]
        first_guarantee += completions[0].seconds
        ladder_seconds += run.elapsed_seconds
        ladder_lps += run.lps_solved
        for event in completions:
            rung_lps[event.rung] += event.lps_solved
            rung_plans[event.rung] += event.plan_count
            rung_seconds[event.rung] += event.seconds
        direct = scn.optimize(query, resolution=resolution)
        direct_seconds += direct.stats.optimization_seconds
        direct_lps += direct.stats.lps_solved
    rungs = tuple(
        AnytimeRungPoint(rung=index, alpha=alpha,
                         guarantee=guarantee_bound(alpha, num_tables),
                         lps_solved=rung_lps[index],
                         plan_count=rung_plans[index],
                         seconds=rung_seconds[index])
        for index, alpha in enumerate(ladder))
    return AnytimeLadderReport(
        scenario=scenario, shape=shape, num_tables=num_tables,
        queries=len(queries), ladder=ladder, rungs=rungs,
        first_guarantee_seconds=first_guarantee,
        ladder_seconds=ladder_seconds, ladder_lps=ladder_lps,
        direct_seconds=direct_seconds, direct_lps=direct_lps)


def run_pool_comparison(num_tables: int = 3, shape: str = "chain",
                        num_queries: int = 4, workers: int = 2,
                        batches: int = 2, resolution: int = 2,
                        options: PWLRRPAOptions | None = None,
                        base_seed: int = 0,
                        scenario: str = "cloud") -> list[ThroughputPoint]:
    """Cold-pool vs. persistent-pool (session) queries/sec.

    The same sequence of ``batches`` distinct-query batches is optimized
    twice: once with a fresh session per batch (every batch pays worker
    spawn and teardown, as a per-batch pool would) and once with a
    single session kept open across all batches.  A pool task runs on
    its own run's LP memo, so no LP-memo hit carries from one batch to
    the next and the regimes differ only in pool spawn and teardown.
    Returns one aggregate :class:`ThroughputPoint` per regime
    (``pool="cold"`` / ``"persistent"``).
    """
    from ..service import OptimizerSession

    batched = [
        _workload(num_tables, shape, num_queries,
                  base_seed + batch * num_queries)
        for batch in range(batches)]
    points = []

    started = time.perf_counter()
    failures = 0
    for queries in batched:  # legacy regime: one pool per batch
        with OptimizerSession(scenario, workers=workers,
                              resolution=resolution, options=options,
                              warm_start=False) as session:
            failures += sum(1 for item in session.map(queries)
                            if not item.ok)
    seconds = time.perf_counter() - started
    total = num_queries * batches
    points.append(ThroughputPoint(
        workers=workers, num_tables=num_tables, shape=shape,
        queries=total, seconds=seconds,
        qps=total / seconds if seconds > 0 else float("inf"),
        failures=failures, scenario=scenario, pool="cold"))

    started = time.perf_counter()
    failures = 0
    with OptimizerSession(scenario, workers=workers,
                          resolution=resolution, options=options,
                          warm_start=False) as session:
        for queries in batched:  # one pool across every batch
            failures += sum(1 for item in session.map(queries)
                            if not item.ok)
    seconds = time.perf_counter() - started
    points.append(ThroughputPoint(
        workers=workers, num_tables=num_tables, shape=shape,
        queries=total, seconds=seconds,
        qps=total / seconds if seconds > 0 else float("inf"),
        failures=failures, scenario=scenario, pool="persistent"))
    return points
