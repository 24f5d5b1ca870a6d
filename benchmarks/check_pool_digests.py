"""Check every benchmark pool entry against its committed digest.

``perfbench/expected.json`` holds, for every query the end-to-end
benchmark can draw, the digest of its exact plan set and its work key
(LP requests: solved plus memo hits).  This check optimizes every entry
exactly, as ``perfbench/make_expected.py`` did when the file was
written (``optimize_query``, cloud scenario, default options), and fails
on any entry whose digest or work key differs: a changed plan set is a
correctness regression, and a changed work key shifts the benchmark's
stratified draws.

Each row also reports the entry's full LP accounting (solves, memo hits,
infeasible and unbounded verdicts, closed-form deferrals, solves per
purpose) and its created plans.  These fields gate nothing: two runs'
``--json`` files diff to show whether a change kept the accounting.

It only reads ``perfbench/``: the pool comes from ``perfbench/inputs.py``
and the digest from ``perfbench/measure.py``, imported unmodified.

Run from the repository root (about a minute on two cores)::

    python benchmarks/check_pool_digests.py [--json pool-digests.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from repro.api import optimize_query  # noqa: E402
from repro.core.serialize import encode_result  # noqa: E402

import inputs  # noqa: E402
from measure import canonical_digest  # noqa: E402


def pool() -> list[tuple[str, object, int]]:
    """``(entry id, query, resolution)`` of every pool entry."""
    entries = [(entry, inputs.exact_query(entry),
                inputs.entry_resolution(entry))
               for entry in inputs.exact_pool_ids()]
    serve = (inputs.serve_base_ids() + inputs.serve_drift_ids()
             + inputs.serve_fresh_ids())
    return entries + [(entry, inputs.serve_query(entry), 2)
                      for entry in serve]


def check(expected: dict) -> list[dict]:
    """One row per pool entry: committed and measured digest and work,
    then the measured LP accounting and created plans."""
    rows = []
    for entry, query, resolution in pool():
        result = optimize_query(query, "cloud", resolution=resolution)
        stats = result.stats
        lp = stats.lp_stats
        committed = expected.get(entry, {})
        rows.append({
            "entry": entry,
            "digest": canonical_digest(encode_result(result)),
            "expected_digest": committed.get("digest"),
            "work": stats.lps_solved + lp.cache_hits,
            "expected_work": committed.get("work"),
            "solved": lp.solved,
            "hits": lp.cache_hits,
            "infeasible": lp.infeasible,
            "unbounded": lp.unbounded,
            "lowdim_deferred": lp.lowdim_deferred,
            "by_purpose": lp.by_purpose(),
            "plans_created": stats.plans_created,
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", help="write the per-entry rows here")
    args = parser.parse_args(argv)
    expected = inputs.load_expected()["entries"]
    rows = check(expected)
    failures = [row for row in rows
                if (row["digest"], row["work"])
                != (row["expected_digest"], row["expected_work"])]
    unlisted = sorted(set(expected) - {row["entry"] for row in rows})
    for row in failures:
        print(f"MISMATCH {row['entry']}: digest {row['digest'][:12]} "
              f"(expected {str(row['expected_digest'])[:12]}), work "
              f"{row['work']} (expected {row['expected_work']})")
    for entry in unlisted:
        print(f"MISSING {entry}: in expected.json but not in the pool")
    print(f"{len(rows) - len(failures)} of {len(rows)} pool entries match "
          f"their committed digest and work key")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"entries": rows, "unlisted": unlisted}, handle,
                      indent=1)
    return 1 if failures or unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
