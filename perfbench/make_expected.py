"""Regenerate ``perfbench/expected.json``: pool digests and work keys.

For every pool entry of every workload this optimizes the query exactly
(``optimize_query``, default options) and records

* ``digest``: sha256 of the sorted-key JSON of ``encode_plan_set`` of
  the decoded result (what the gateway returns), the answer every
  benchmark run is checked against;
* ``work``: the LP requests (solved + memo hits) of that run, the key
  the runs' stratified draws sort the pools by.

The file was generated once, when the benchmark was defined.  Never
regenerate it to make a diverging plan set pass: a digest mismatch is a
correctness regression.  Run it only when a pool itself is extended::

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.api import optimize_query  # noqa: E402
from repro.core.serialize import encode_result  # noqa: E402

import inputs  # noqa: E402
from measure import canonical_digest  # noqa: E402


def pool() -> list[tuple[str, object, int]]:
    entries = [(entry, inputs.exact_query(entry),
                inputs.entry_resolution(entry))
               for entry in inputs.exact_pool_ids()]
    serve = (inputs.serve_base_ids() + inputs.serve_drift_ids()
             + inputs.serve_fresh_ids())
    entries += [(entry, inputs.serve_query(entry), 2) for entry in serve]
    return entries


def main() -> int:
    rows = {}
    for entry, query, resolution in pool():
        started = time.perf_counter()
        result = optimize_query(query, "cloud", resolution=resolution)
        rows[entry] = {"digest": canonical_digest(encode_result(result)),
                       "work": result.stats.lps_solved
                       + result.stats.lp_stats.cache_hits}
        print(f"{entry}: {time.perf_counter() - started:.2f} s, "
              f"work {rows[entry]['work']}", file=sys.stderr, flush=True)
    with open(inputs.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"entries": rows}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
