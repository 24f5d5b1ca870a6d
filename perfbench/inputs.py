"""Seeded inputs of the benchmark workloads.

Every query comes from a committed *pool* of CRC-seeded instances
(:func:`repro.bench.workloads.queries_for_point`, ``drift_statistics``,
``stable_seed``), and every pool entry has a committed expected digest
and a committed work key (the LP requests of its exact run) in
``expected.json``.  ``--seed`` draws a run's inputs from the pools:

* ``exact`` draws one query per *stratum* of each pool sorted by its
  work key.  Every seed therefore runs different queries with the same
  spread of work, which keeps a run's total work (and so its
  throughput) steady across seeds while the queries vary;
* ``serve-recurring`` draws its drift recurrences and fresh families the
  same way, and fixes the whole open-loop arrival schedule up front.

The same seed always gives the same inputs: the draws use a private
``random.Random`` seeded from a CRC32 of the workload and seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from repro.bench.workloads import (SweepPoint, drift_statistics,
                                   queries_for_point, stable_seed)

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: The exact workload's two pools, ``(tables, shape, params,
#: resolution)`` points with ``per_point`` CRC-seeded queries each: 1
#: parameter (1-D LPs) and 2 parameters (2-D LPs).  A run draws from the
#: entries whose work key (LP requests) lies in the pool's ``band``, one
#: query per pair of work neighbours (strata of two keep the draw from
#: moving a run's total work; the pairs in the bands lie within 12% of
#: each other): 8 1p and 3 2p queries, a pass of 7-12 s, so a run
#: repeats every query three to six times.  The bands leave out the
#: lightest queries (dominated by fixed costs) and the heaviest (up to
#: 6 s each, which would leave room for one or two repeats, and whose
#: neighbours differ by up to 25% in work).
EXACT_POOLS = (
    {"points": ((4, "chain", 1, 2), (4, "star", 1, 2)), "per_point": 12,
     "band": (1200, 2200)},
    {"points": ((3, "chain", 2, 1), (3, "star", 2, 1)), "per_point": 12,
     "band": (1400, 1950)},
)
EXACT_STRATUM = 2

#: serve-recurring base families ``(tables, shape, base_seed)``: 1
#: parameter, cloud, resolution 2, warmed before the measured window.
#: Hits repeat them and drift recurrences perturb them.  All families
#: are 3-table: the gateway runs shards, event loop and clients under
#: one interpreter lock, and 4-table hits (~45 ms of decode each) or
#: misses (seconds) would load it so much that the latency quantiles
#: swing with the arrival pattern rather than with the code.  The four
#: were picked for equal hit cost (28-34 polytopes, ~7 ms to decode and
#: re-encode), so the hits form one latency population, and for cheap
#: drift recurrences (59-111 LP requests at base).
SERVE_BASES = ((3, "chain", 505), (3, "chain", 513), (3, "star", 503),
               (3, "star", 515))
SERVE_DRIFT_PER_BASE = 24
SERVE_FRESH_SEED = 600
SERVE_FRESH_PER_SHAPE = 18

#: Offered rate of serve-recurring (requests/s) and requests in one
#: schedule: p90 keeps 10 responses beyond it.  A run replays the
#: schedule on as many fresh gateways as ``--seconds`` holds (three in
#: 45 s); README.md compares the rate with the saturation rate.
SERVE_RATE = 7.0
SERVE_REQUESTS = 100
#: Request mix of one schedule: drift recurrences per base family and
#: fresh families; the other requests are hits.  How long a drift
#: recurrence takes depends mostly on its base (chain 505: 140-320 ms,
#: star 503: 100-160 ms, the other two 50-90 ms), so every schedule
#: draws the same number from each base, stratified by work within the
#: heavier two thirds of its pool (which keeps the chain-505 drifts
#: above the star-503 ones).  Fresh families come from a work band
#: whose cold ladders take 130-200 ms, about as long as a chain-505
#: drift: heavier ones (300-700 ms) held up the next two or three hits
#: and moved p90 with the arrival offsets.  The ten responses beyond
#: p90 are then fresh families, chain-505 drifts, the slowest star-503
#: drifts and hits that waited behind them, so p90 sits where the slow
#: misses lie densest; the median sits among the hits that did not wait
#: behind a miss (about 70 of the 80).
SERVE_DRIFTS_PER_BASE = 4
SERVE_FRESH = 4
SERVE_FRESH_BAND = (100, 170)
#: Deadline sent with every request: far above any miss, so requests
#: take the anytime path (store seeding engages) yet never go partial.
SERVE_DEADLINE_S = 120.0


def run_rng(workload: str, seed: int) -> random.Random:
    """The private generator of one run's draws."""
    return random.Random(stable_seed(f"perfbench:{workload}:{seed}"))


def _pool_ids(pool: dict) -> list[str]:
    return [f"{n}:{shape}:{p}:{res}:{i}"
            for n, shape, p, res in pool["points"]
            for i in range(pool["per_point"])]


def exact_pool_ids() -> list[str]:
    """Pool entry ids of the exact workload, ``tables:shape:params:res:i``."""
    return [entry for pool in EXACT_POOLS for entry in _pool_ids(pool)]


def exact_query(entry_id: str):
    """The query of one exact pool entry."""
    n, shape, p, res, i = entry_id.split(":")
    point = SweepPoint(int(n), shape, int(p), int(res))
    return queries_for_point(point, 1, base_seed=int(i))[0]


def entry_resolution(entry_id: str) -> int:
    return int(entry_id.split(":")[3])


def entry_params(entry_id: str) -> int:
    return int(entry_id.split(":")[2])


def serve_base_ids() -> list[str]:
    return [f"base:{n}:{shape}:{seed}" for n, shape, seed in SERVE_BASES]


def serve_drift_ids() -> list[str]:
    return [f"drift:{base}:{j}" for base in serve_base_ids()
            for j in range(SERVE_DRIFT_PER_BASE)]


def serve_fresh_ids() -> list[str]:
    return [f"fresh:3:{shape}:{SERVE_FRESH_SEED + i}"
            for shape in ("chain", "star")
            for i in range(SERVE_FRESH_PER_SHAPE)]


def serve_query(entry_id: str):
    """The query of one serve pool entry (base, drift or fresh)."""
    kind, rest = entry_id.split(":", 1)
    if kind == "drift":
        base_id, j = rest.rsplit(":", 1)
        return drift_statistics(serve_query(base_id),
                                seed=stable_seed(f"perfbench:{rest}"))
    n, shape, base_seed = rest.split(":")
    point = SweepPoint(int(n), shape, 1, 2)
    return queries_for_point(point, 1, base_seed=int(base_seed))[0]


def load_expected() -> dict:
    """Committed digests and work keys, by pool entry id."""
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def stratified_draw(ids: list[str], work: dict, stratum: int,
                    rng: random.Random) -> list[str]:
    """One id per stratum of ``ids`` sorted by work key, lightest first.

    Ties in the work key break on the id, so the strata do not depend on
    the pool's listing order.
    """
    ordered = sorted(ids, key=lambda entry: (work[entry], entry))
    return [rng.choice(ordered[start:start + stratum])
            for start in range(0, len(ordered), stratum)]


def _light_heavy(picks: list[str]) -> list[str]:
    """Lightest, heaviest, second lightest, ... of picks sorted by work."""
    light, heavy = picks[:(len(picks) + 1) // 2], picks[::-1]
    return [entry for pair in zip(light, heavy) for entry in pair][
        :len(picks)]


def exact_inputs(seed: int, expected: dict) -> list[str]:
    """The pool entries one exact run optimizes, in run order.

    Each pool's draws alternate light and heavy, and the 2-parameter
    draws are spread evenly among the 1-parameter ones, so any prefix of
    a pass carries about its share of the work of each kind: a run that
    stops inside its second pass then counts a balanced part of it, not
    a seed-dependent one.
    """
    work = {entry: row["work"] for entry, row in expected.items()}
    rng = run_rng("exact", seed)
    one, two = (_light_heavy(stratified_draw(
        [entry for entry in _pool_ids(pool)
         if pool["band"][0] <= work[entry] <= pool["band"][1]],
        work, EXACT_STRATUM, rng)) for pool in EXACT_POOLS)
    step = max(1, len(one) // max(1, len(two)))
    order = []
    for index, entry in enumerate(one):
        order.append(entry)
        if (index + 1) % step == 0 and two:
            order.append(two.pop(0))
    return order + two


@dataclass(frozen=True)
class Request:
    """One scheduled serve-recurring request."""

    at: float       # scheduled send time, seconds after schedule start
    entry: str      # serve pool entry id
    kind: str       # "hit", "drift" or "fresh"


def serve_replays(seconds: float) -> int:
    """How many replays of the schedule one run of ``seconds`` holds."""
    return max(1, int(seconds * SERVE_RATE // SERVE_REQUESTS))


def serve_schedule(seed: int, expected: dict) -> list[Request]:
    """The whole open-loop arrival schedule of one serve run.

    ``SERVE_REQUESTS`` arrivals, one in each slot of ``1 / SERVE_RATE``
    seconds at a seeded uniform offset (a paced open loop).  Misses
    (drift recurrences and fresh families, see ``SERVE_DRIFTS_PER_BASE``)
    take evenly spaced slots from a seeded phase, in seeded order; hits
    take the other slots, rotating over the base families in a seeded
    order.  Misses are stratified draws without repeats, so each one
    misses the memory tier.

    Poisson arrivals were tried first: their bursts stack misses onto
    both client threads, and the median and p90 then moved by 40-70%
    between seeds, far more than any change under test.
    """
    rng = run_rng("serve-recurring", seed)
    total = SERVE_REQUESTS
    work = {entry: row["work"] for entry, row in expected.items()}
    drifts = []
    for base in serve_base_ids():
        pool = sorted((drift for drift in serve_drift_ids()
                       if drift.startswith(f"drift:{base}:")),
                      key=lambda entry: (work[entry], entry))
        drifts += _draw_distinct(pool[len(pool) // 3:], work,
                                 SERVE_DRIFTS_PER_BASE, rng)
    low, high = SERVE_FRESH_BAND
    fresh = _draw_distinct([entry for entry in serve_fresh_ids()
                            if low <= work[entry] <= high],
                           work, SERVE_FRESH, rng)
    misses = ([("drift", entry) for entry in drifts]
              + [("fresh", entry) for entry in fresh])
    rng.shuffle(misses)
    bases = serve_base_ids()
    rng.shuffle(bases)
    stride = total / max(1, len(misses))
    phase = rng.uniform(0.0, stride)
    miss_slots = {min(total - 1, int(phase + k * stride))
                  for k in range(len(misses))}
    slots, taken_misses, taken_hits = [], iter(misses), 0
    for slot in range(total):
        if slot in miss_slots:
            slots.append(next(taken_misses))
        else:
            slots.append(("hit", bases[taken_hits % len(bases)]))
            taken_hits += 1
    return [Request((slot + rng.random()) / SERVE_RATE, entry, kind)
            for slot, (kind, entry) in enumerate(slots)]


def _draw_distinct(ids: list[str], work: dict, count: int,
                   rng: random.Random) -> list[str]:
    """``count`` distinct ids, stratified by work key."""
    if count > len(ids):
        raise ValueError(f"pool of {len(ids)} too small for {count} draws")
    stratum = max(1, len(ids) // max(1, count))
    picks = stratified_draw(ids, work, stratum, rng)
    rng.shuffle(picks)
    return picks[:count]
