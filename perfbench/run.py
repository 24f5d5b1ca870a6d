"""End-to-end benchmark of the MPQ optimizer, its session and gateway.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact --seed 0 --seconds 45 --trace 0

Workloads (``perfbench/README.md`` says why each was chosen):

* ``exact``: one caller in a closed loop calls
  ``repro.api.optimize_query`` on a stratified draw of CRC-seeded
  1- and 2-parameter chain and star queries, each with a fresh
  optimizer, cycling them for the whole run; a query's latency is the
  best of its runs;
* ``serve-recurring``: a paced open loop at a fixed rate into an
  in-process gateway (two shards, one shared plan-set store) with
  recurring families: memory-tier hits, drift recurrences (store near
  miss, seeded ladder) and fresh families; the schedule is replayed on
  fresh gateways for the whole run and the latencies are pooled.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer
metrics of a separate traced run, whose spans are written to
``.perfbench_out/``.  The line before it is the run record (versions,
nproc, seed, commit, per-query work counts).  Every plan set is checked
against a committed sha256 digest; a mismatch, refusal or non-exact
answer counts as failed, and the command exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("exact", "serve-recurring")
#: Set-up runs this many times per run, each in a fresh process; the
#: median is reported.
SETUP_REPEATS = 3
#: A run is flagged when the generator sent a request this late.
LATE_FLAG_MS = 1000.0
TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def declared_metrics() -> dict[str, dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, by name."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def repro_knobs() -> list[str]:
    """``REPRO_*`` variables set in the environment."""
    return sorted(name for name in os.environ if name.startswith("REPRO_"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


def host_probe_ms() -> float:
    """Best of five timings of a fixed pure-Python loop, independent of
    the program: the run record keeps it before and after the measured
    window, so a reader can tell host slowdowns from program changes."""
    timings = []
    for _ in range(5):
        started = time.perf_counter()
        table: dict[int, float] = {}
        for i in range(100_000):
            table[i & 1023] = table.get(i & 1023, 0.0) + i * 0.5
        timings.append(time.perf_counter() - started)
    return min(timings) * 1e3


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    return {"workload": workload, "seed": seed,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "commit": git_commit()}


# ----------------------------------------------------------------------
# Set-up: imports, inputs, and for serve-recurring the warmed gateway
# ----------------------------------------------------------------------

class ExactSetup:
    """Inputs of an exact run, with the optimizer's lazy set-up done."""

    def __init__(self, seed: int) -> None:
        from repro.api import optimize_query
        from repro.bench.workloads import SweepPoint, queries_for_point

        import inputs
        self.expected = inputs.load_expected()["entries"]
        self.queries = [(entry, inputs.exact_query(entry),
                         inputs.entry_resolution(entry),
                         inputs.entry_params(entry))
                        for entry in inputs.exact_inputs(seed,
                                                         self.expected)]
        # One tiny query finishes lazy imports and first-call set-up, so
        # the first timed optimization pays nothing a user pays once.
        optimize_query(queries_for_point(SweepPoint(2, "chain", 1), 1)[0])

    def close(self) -> None:
        pass


class ServeSetup:
    """The serve inputs, and a fresh gateway and store file warmed with
    the base families (:meth:`start` boots another one, traced from its
    warm-up on when ``instrumentation`` is set)."""

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro.serve.protocol import query_to_doc

        import inputs
        self.expected = inputs.load_expected()["entries"]
        self.schedule = inputs.serve_schedule(seed, self.expected)
        self.bases = inputs.serve_base_ids()
        entries = sorted({r.entry for r in self.schedule} | set(self.bases))
        self.docs = {entry: query_to_doc(inputs.serve_query(entry))
                     for entry in entries}
        self.deadline = inputs.SERVE_DEADLINE_S
        self.workdir = workdir
        self.instrumentation = None
        self.warmup_errors = []
        self.start()

    def start(self) -> None:
        """Boot a gateway on a new store file and answer the bases once."""
        from repro.api import GatewayClient, GatewayConfig, launch_gateway

        from measure import plan_set_digest
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.store_path = self.workdir / "plans.db"
        self.handle = launch_gateway(GatewayConfig(
            shards=2, shard_workers=0, tenant_rate=1e6, tenant_burst=1e6,
            max_pending=100000, store_path=str(self.store_path)))
        self.client = GatewayClient(self.handle.host, self.handle.port,
                                    timeout=self.deadline + 60)
        if self.instrumentation is not None:
            self.instrumentation.install()
        for entry in self.bases:
            response = self.client.optimize(
                doc=self.docs[entry], tenant="bench",
                deadline_seconds=self.deadline)
            doc = response.doc
            if (response.status_code != 200 or doc.get("status") != "ok"
                    or plan_set_digest(doc["plan_set"])
                    != self.expected[entry]["digest"]):
                self.warmup_errors.append(entry)

    def store_bytes(self) -> int:
        return sum(os.path.getsize(f"{self.store_path}{suffix}")
                   for suffix in ("", "-wal")
                   if os.path.exists(f"{self.store_path}{suffix}"))

    def close(self) -> None:
        self.handle.close()
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass  # another run still has its directory there


def make_setup(workload: str, seed: int):
    if workload == "serve-recurring":
        return ServeSetup(seed, TMP_DIR / f"run-{os.getpid()}")
    return ExactSetup(seed)


def setup_child(workload: str, seed: int) -> int:
    """One set-up in a fresh process; prints one ``ready`` line."""
    setup = make_setup(workload, seed)
    print(json.dumps({"setup_s": time.perf_counter() - STARTED}),
          flush=True)
    setup.close()
    return 0


def measure_setups(workload: str, seed: int) -> list[float]:
    """Set-up time (module start to ready) of ``SETUP_REPEATS - 1``
    set-ups, each in a fresh process.  They run after the measured
    window, so they disturb nothing; the run's own set-up is the
    remaining sample."""
    walls = []
    for _ in range(SETUP_REPEATS - 1):
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(seed),
                 "--setup-child"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            child.stdout.read()
            code = child.wait(timeout=120)
        if code != 0 or not line.strip():
            raise RuntimeError(f"set-up process exited with {code}")
        walls.append(json.loads(line)["setup_s"])
    return walls


# ----------------------------------------------------------------------
# exact: closed loop over optimize_query
# ----------------------------------------------------------------------

def run_exact(seed: int, seconds: float, traced: bool
              ) -> tuple[dict, int, int, dict]:
    from repro.api import optimize_query
    from repro.core.serialize import encode_result

    import layers
    from measure import exact_answer_ok, percentile, tail
    from spans import Instrumentation, SpanRecorder

    setup = ExactSetup(seed)
    setup_walls = [time.perf_counter() - STARTED]
    recorder = SpanRecorder()
    instrumentation = Instrumentation(recorder)

    def optimize(query, resolution: int, root: str | None):
        if root is None:
            started = time.perf_counter()
            result = optimize_query(query, "cloud", resolution=resolution)
            return result, time.perf_counter() - started
        instrumentation.install()
        try:
            started = time.perf_counter()
            with recorder.span(root):
                result = optimize_query(query, "cloud",
                                        resolution=resolution)
            return result, time.perf_counter() - started
        finally:
            instrumentation.remove()

    # The loop cycles the drawn queries until ``seconds`` have passed, so
    # every query runs three to six times, spread over the run.  Its
    # latency is the best of its runs (as ``timeit`` reports): the host
    # of the benchmark slows every process on it by up to 2.5x for tens
    # of seconds at a time, in process CPU time as much as in wall time,
    # and the best of runs spread over the window drops those episodes.
    # A traced run optimizes each query twice, traced and untraced in
    # alternating order, so the overhead compares identical work.
    # Each answer is compared with the first answer for its query, and
    # the first answers with their digests after the timed loop: one
    # document per drawn query is kept, so memory does not grow with
    # the number of queries a run completes.
    latencies, traced_s, per_query = [], [], []
    best: dict[str, float] = {}
    traced_stats = {1: [], 2: []}
    first_answers: dict[str, dict] = {}
    occurrences: dict[str, int] = {}
    attempted = failed = 0
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    position = 0
    while True:
        entry, query, resolution, params = setup.queries[
            position % len(setup.queries)]
        modes = (position % 2 == 1, position % 2 == 0) if traced \
            else (False,)
        for with_trace in modes:
            result, elapsed = optimize(
                query, resolution,
                f"core.optimize.{params}p" if with_trace else None)
            if with_trace:
                traced_s.append(elapsed)
                traced_stats[params].append((result.stats,
                                             len(result.entries)))
            else:
                latencies.append(elapsed)
                best[entry] = min(elapsed, best.get(entry, elapsed))
            attempted += 1
            occurrences[entry] = occurrences.get(entry, 0) + 1
            doc = encode_result(result)
            if (result.achieved_alpha != 0.0
                    or first_answers.setdefault(entry, doc) != doc):
                failed += 1
                log(f"answer for {entry} is not exact or changed")
        per_query.append({
            "entry": entry, "ms": round(latencies[-1] * 1e3, 3),
            "plans_created": result.stats.plans_created,
            "lp_requests": result.stats.lps_solved
            + result.stats.lp_stats.cache_hits})
        del result, doc
        position += 1
        wall = time.perf_counter() - wall0
        if position >= len(setup.queries) and wall >= seconds:
            break
    cpu = cpu_seconds() - cpu0
    rss = peak_rss_mb()
    for entry, doc in first_answers.items():
        if not exact_answer_ok(0.0, doc, setup.expected[entry]["digest"]):
            failed += occurrences[entry]
            log(f"plan set of {entry} does not match its digest")
    record = {"queries": per_query}
    if not traced:
        setup_walls += measure_setups("exact", seed)
        best_ms = [x * 1e3 for x in best.values()]
        # One sample per drawn query: the tail falls back to the median.
        pct, tail_ms = tail(best_ms, len(best_ms))
        record.update(setup_s=setup_walls, tail_pct=pct,
                      samples=len(latencies),
                      best_ms={entry: round(x * 1e3, 3)
                               for entry, x in best.items()},
                      wall_queries_per_s=len(latencies) / wall)
        return ({"setup_s": statistics.median(setup_walls),
                 "queries_per_s": len(best) / sum(best.values()),
                 "latency_ms.p50": percentile(best_ms, 50.0),
                 "latency_ms.tail": tail_ms,
                 "peak_rss_mb": rss},
                attempted, failed, record)
    table = recorder.table()
    save_spans(table, "exact", seed)
    top = table.parent < 0
    metrics = layers.optimizer_metrics(
        table, top & table.mask(*layers.EXACT_ROOTS),
        len(traced_s), traced_stats[1] + traced_stats[2])
    # The LP time of each dimension, per query of that dimension: a
    # 1-D-only LP change must leave lp.self_s.2p alone.
    for params in (1, 2):
        metrics[f"lp.self_s.{params}p"] = layers.optimizer_metrics(
            table, top & table.mask(f"core.optimize.{params}p"),
            len(traced_stats[params]))["lp.self_s"]
    metrics["proc.cpu_per_wall"] = cpu / wall
    metrics["trace.overhead"] = sum(traced_s) / sum(latencies) - 1.0
    return metrics, attempted, failed, record


# ----------------------------------------------------------------------
# serve-recurring: open loop into an in-process gateway
# ----------------------------------------------------------------------

def play(setup: ServeSetup) -> tuple[float, list, float]:
    """Send the schedule to the gateway of ``setup``.

    Returns the schedule's start (``perf_counter``), one ``(due, sent,
    done, http_status, summary)`` row per request and the process CPU
    seconds spent.  One sequential client on one connection: the gateway
    and the generator share one interpreter lock, and with a second
    in-flight request each latency depended on which requests
    overlapped (the median moved 40% between seeds).  A request due
    while the previous one runs is sent late, and its latency counts
    from when it was due.
    """
    from measure import plan_set_digest
    cpu0 = cpu_seconds()
    start = time.perf_counter() + 0.05
    outcomes = []
    for request in setup.schedule:
        due = start + request.at
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        try:
            response = setup.client.optimize(
                doc=setup.docs[request.entry], tenant="bench",
                deadline_seconds=setup.deadline)
            status, doc = response.status_code, response.doc
        except (OSError, http.client.HTTPException, ValueError) as exc:
            status, doc = 0, {"error": repr(exc)}
        done = time.perf_counter()
        # Keep a summary only: a plan set document is large.
        summary = {key: doc.get(key) for key in ("status", "alpha", "plans")}
        if "plan_set" in doc:
            summary["digest"] = plan_set_digest(doc["plan_set"])
        outcomes.append((due, sent, done, status, summary))
    return start, outcomes, cpu_seconds() - cpu0


def run_serve(seed: int, seconds: float, traced: bool
              ) -> tuple[dict, int, int, dict]:
    import inputs
    import layers
    from measure import percentile, response_ok, tail
    from spans import Instrumentation, SpanRecorder

    recorder = SpanRecorder()
    instrumentation = Instrumentation(recorder)
    setup = make_setup("serve-recurring", seed)
    setup_walls = [time.perf_counter() - STARTED]
    schedule = setup.schedule
    # The run replays the schedule as often as ``seconds`` hold, each
    # time on a fresh gateway and store file, so every replay does
    # identical work, and pools the latencies: p90 of one schedule rests
    # on its ten slowest responses, which the host's speed moves by 15%
    # from replay to replay.  The traced run traces its middle replay and
    # compares its busy time with that of the untraced ones.
    replays = inputs.serve_replays(seconds)
    if traced:
        replays = max(2, replays)
    traced_replay = replays // 2 if traced else None
    runs = []
    try:
        for replay in range(replays):
            if replay:
                setup.close()
                setup.instrumentation = (instrumentation
                                         if replay == traced_replay
                                         else None)
                setup.start()
            before = setup.client.metrics()
            start, outcomes, cpu = play(setup)
            runs.append((start, outcomes))
            if replay == traced_replay:
                instrumentation.remove()
                window = (start, outcomes, cpu, before,
                          setup.client.metrics(), setup.store_bytes())
    finally:
        instrumentation.remove()
        setup.close()
    if not traced:
        setup_walls += measure_setups("serve-recurring", seed)

    failed = len(setup.warmup_errors)
    late_ms = 0.0
    digests: dict[str, str] = {}
    for _, outcomes in runs:
        for request, (due, sent, _, status, doc) in zip(schedule, outcomes):
            late_ms = max(late_ms, (sent - due) * 1e3)
            # Every repeat of a signature must return the identical digest.
            first = digests.setdefault(request.entry, doc.get("digest"))
            if (not response_ok(status, doc,
                                setup.expected[request.entry]["digest"])
                    or first != doc.get("digest")):
                failed += 1
                log(f"request {request.entry} ({request.kind}) failed: "
                    f"HTTP {status}, status {doc.get('status')}")
    # From the scheduled send to the full response, pooled over the
    # replays; the tail percentile is the one a single schedule supports.
    replay_ms = [[(o[2] - o[0]) * 1e3 for o in outcomes]
                 for _, outcomes in runs]
    latencies_ms = [ms for replay in replay_ms for ms in replay]
    pct, tail_ms = tail(latencies_ms, len(schedule))
    by_kind = {kind: percentile([ms for replay in replay_ms
                                 for request, ms in zip(schedule, replay)
                                 if request.kind == kind], 50.0)
               for kind in ("hit", "drift", "fresh")}
    record = {"rate_per_s": inputs.SERVE_RATE, "requests": len(schedule),
              "replays": replays, "p50_ms_by_kind": by_kind,
              "replay_p50_ms": [percentile(ms, 50.0) for ms in replay_ms],
              "replay_tail_ms": [tail(ms, len(ms))[1] for ms in replay_ms],
              "setup_s": setup_walls,
              "tail_pct": pct, "late_ms_max": late_ms,
              "loadgen_behind": late_ms > LATE_FLAG_MS}
    if late_ms > LATE_FLAG_MS:
        log(f"load generator fell behind by {late_ms:.0f} ms")
    attempted = len(schedule) * replays
    if not traced:
        return ({"setup_s": statistics.median(setup_walls),
                 "queries_per_s": attempted / sum(
                     outcomes[-1][2] - start for start, outcomes in runs),
                 "latency_ms.p50": percentile(latencies_ms, 50.0),
                 "latency_ms.tail": tail_ms,
                 "peak_rss_mb": peak_rss_mb()},
                attempted, failed, record)
    start, outcomes, cpu, before, after, store_bytes = window
    hits = sum(doc.get("status") == "cached" for *_, doc in outcomes)
    busy = [sum(done - sent for _, sent, done, *_ in replay)
            for _, replay in runs]
    client_seconds = busy[traced_replay]
    untraced = busy[:traced_replay] + busy[traced_replay + 1:]
    wall = outcomes[-1][2] - start
    table = recorder.table()
    save_spans(table, "serve-recurring", seed)
    metrics = layers.serve_metrics(table, start, len(schedule), hits,
                                   client_seconds)
    seeded = sum(s["store_seed_hits"] for s in after["shards"]) \
        - sum(s["store_seed_hits"] for s in before["shards"])
    unseeded = sum(s["store_seed_misses"] for s in after["shards"]) \
        - sum(s["store_seed_misses"] for s in before["shards"])
    entries = after.get("store", {}).get("entries", 0)
    pareto = [doc.get("plans") or 0 for *_, doc in outcomes]
    metrics.update({
        "core.pareto_plans": sum(pareto) / len(pareto),
        "service.hit_ratio": hits / len(schedule),
        "service.seed_hit_ratio": (seeded / (seeded + unseeded)
                                   if seeded + unseeded else 0.0),
        "store.bytes_per_entry": store_bytes / entries if entries else 0.0,
        "loadgen.late_ms.max": late_ms,
        "proc.cpu_per_wall": cpu / wall,
        "trace.overhead": client_seconds / statistics.mean(untraced) - 1.0,
    })
    return metrics, attempted, failed, record


def save_spans(table, workload: str, seed: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    table.save(OUT_DIR / f"spans-{workload}-seed{seed}.npz")


# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        log(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        return 1
    knobs = repro_knobs()
    if knobs:
        log(f"refusing to run with {', '.join(knobs)} set: REPRO_* knobs "
            f"change what is measured")
        return 2
    if args.setup_child:
        return setup_child(args.workload, args.seed)
    declared = declared_metrics()
    kind = "per_layer" if args.trace else "end_to_end"
    if args.workload == "serve-recurring":
        values, attempted, failed, record = run_serve(
            args.seed, args.seconds, bool(args.trace))
    else:
        values, attempted, failed, record = run_exact(
            args.seed, args.seconds, bool(args.trace))
    units = declared[kind]
    undeclared = set(values) - set(units)
    missing = set(units) - set(values)
    if undeclared or (missing and kind == "end_to_end"):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"undeclared {sorted(undeclared)}, "
                           f"missing {sorted(missing)}")
    # A layer that does no work on a workload (the store on exact-*, the
    # Figure-12 counters behind a session) reports 0.
    values = {name: values.get(name, 0.0) for name in units}
    record = {**environment(args.workload, args.seed), **record,
              "host_probe_ms": host_probe_ms()}
    print(json.dumps({"record": record}), flush=True)
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in values.items()}}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
