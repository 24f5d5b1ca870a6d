"""Concurrency stress test for the shared warm-start cache.

A session's pool callback thread puts while its main thread reads, and a
gateway encodes a served plan set on its loop thread while the shard
thread serves the next hit.  Here more threads than cores put and load a
handful of signatures at three alpha tags, with the interpreter's switch
interval shortened so that threads interleave inside every decode, and
the test checks the cache's invariants:

* every lookup counts exactly one hit or one miss;
* a ``load(sig, max_alpha=a)`` answer is the decode of a document put
  under ``sig`` with an alpha tag of at most ``a`` — a decode that
  finished after a put replaced its entry never lands on the new entry;
* a coarser put never replaces a tighter entry.
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading

from repro.api import optimize_query
from repro.core import decode_plan_set, encode_plan_set, encode_result
from repro.query import QueryGenerator
from repro.service import WarmStartCache

THREADS = (os.cpu_count() or 1) + 2
ALPHAS = (0.0, 0.25, 0.5)
#: Tags put in each third of a round: coarse first, exact last, so
#: entries are replaced by tighter ones while other threads decode them.
PUT_ORDER = (0.5, 0.25, 0.0)
#: Signatures per round; every round starts on fresh ones.
SIGNATURES = 3
ROUNDS = 10
STEPS = 20
#: Distinct documents per (signature, alpha).
VARIANTS = 2


def _canonical(doc: dict) -> str:
    return json.dumps(encode_plan_set(decode_plan_set(doc)), sort_keys=True)


def test_concurrent_puts_and_loads_keep_the_cache_invariants():
    base = encode_result(optimize_query(
        QueryGenerator(seed=3).generate(2, "chain", 1), "cloud"))
    # Documents differ in their tags only; the plans are shared.
    docs = {(k, a): [dict(base, alpha=a, guarantee=1.0 + a + v / 64.0)
                     for v in range(VARIANTS)]
            for k in range(SIGNATURES) for a in ALPHAS}
    canonical = {id(doc): _canonical(doc)
                 for pool in docs.values() for doc in pool}
    cache = WarmStartCache(maxsize=ROUNDS * SIGNATURES)
    puts: list[tuple[str, dict]] = []
    loads: list[tuple[str, float, object]] = []
    failures: list[str] = []

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for round_ in range(ROUNDS):
                for step in range(STEPS):
                    k = rng.randrange(SIGNATURES)
                    sig = f"r{round_}-s{k}"
                    if rng.random() < 0.3:
                        alpha = PUT_ORDER[len(PUT_ORDER) * step // STEPS]
                        doc = rng.choice(docs[k, alpha])
                        cache.put(sig, doc, alpha=doc["alpha"])
                        puts.append((sig, doc))
                        # This thread's own put is visible to its next
                        # load at that alpha: nothing coarser replaced it.
                        max_alpha = doc["alpha"]
                    else:
                        max_alpha = rng.choice(ALPHAS)
                    # Puts recorded before this load have returned, so
                    # one at or below max_alpha must be served.
                    must_hit = any(put_sig == sig and put["alpha"] <= max_alpha
                                   for put_sig, put in puts)
                    plan_set = cache.load(sig, max_alpha=max_alpha)
                    loads.append((sig, max_alpha, plan_set))
                    if plan_set is None and must_hit:
                        failures.append(f"{sig}: put at alpha <= "
                                        f"{max_alpha} not served")
        except Exception as exc:  # surfaced by the main thread
            failures.append(repr(exc))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)

    assert failures == []
    assert cache.hits + cache.misses == len(loads)
    encoded: dict[int, str] = {}
    for sig, max_alpha, plan_set in loads:
        if plan_set is None:
            continue
        allowed = {canonical[id(doc)] for put_sig, doc in puts
                   if put_sig == sig and doc["alpha"] <= max_alpha}
        if id(plan_set) not in encoded:
            encoded[id(plan_set)] = json.dumps(encode_plan_set(plan_set),
                                               sort_keys=True)
        assert encoded[id(plan_set)] in allowed
    tightest: dict[str, float] = {}
    for sig, doc in puts:
        tightest[sig] = min(tightest.get(sig, 1.0), doc["alpha"])
    for sig, alpha in tightest.items():
        assert cache.get_entry(sig)[1] == alpha
