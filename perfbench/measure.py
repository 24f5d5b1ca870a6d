"""Small measurement helpers: plan-set digests and percentiles."""

from __future__ import annotations

import hashlib
import json
import math

#: A percentile above the median needs at least this many samples
#: beyond it to be reported.
MIN_BEYOND = 10

#: Percentiles the tail metric may report, highest first.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)


def plan_set_digest(doc: dict) -> str:
    """sha256 of the sorted-key JSON of an encoded plan set."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_digest(result_doc: dict) -> str:
    """Digest of an ``encode_result`` document in the form the gateway
    serves it: ``encode_plan_set(decode_plan_set(doc))``.

    The round trip can move a constraint coefficient by one ulp (decode
    renormalizes polytopes), so both sides of every check use this form.
    """
    from repro.api import decode_plan_set, encode_plan_set
    return plan_set_digest(encode_plan_set(decode_plan_set(result_doc)))


def exact_answer_ok(alpha: float, result_doc: dict, expected: str) -> bool:
    """An ``optimize_query`` answer is exact and matches its digest."""
    return alpha == 0.0 and canonical_digest(result_doc) == expected


def response_ok(http_status: int, summary: dict, expected: str) -> bool:
    """A gateway answer is a 200, exact (``ok``/``cached`` at alpha 0)
    and matches its digest.  ``summary`` holds the response's
    ``status``, ``alpha`` and the ``digest`` of its plan set."""
    return (http_status == 200
            and summary.get("status") in ("ok", "cached")
            and summary.get("alpha") == 0.0
            and summary.get("digest") == expected)


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the ``pct`` percentile."""
    return math.floor(count * (100.0 - pct) / 100.0 + 1e-9)


def percentile(samples, pct: float) -> float:
    """Linear-interpolated percentile of ``samples``.

    Raises:
        ValueError: For an empty sample, or for a percentile above the
            median with fewer than :data:`MIN_BEYOND` samples beyond it.
    """
    values = sorted(samples)
    if not values:
        raise ValueError("no samples")
    if pct > 50.0 and samples_beyond(len(values), pct) < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} of {len(values)} samples has fewer than "
            f"{MIN_BEYOND} samples beyond it")
    rank = (len(values) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (rank - low)


def tail(samples, planned: int) -> tuple[float, float]:
    """``(pct, value)`` at the highest reportable tail percentile.

    The percentile is chosen for the ``planned`` sample count (at most
    ``len(samples)``), not the measured one, so a run that happens to
    finish more operations reports the same percentile.  Falls back to
    the median when no percentile of :data:`TAIL_PERCENTILES` keeps
    :data:`MIN_BEYOND` samples beyond it.
    """
    for pct in TAIL_PERCENTILES:
        if samples_beyond(planned, pct) >= MIN_BEYOND:
            return pct, percentile(samples, pct)
    return 50.0, percentile(samples, 50.0)
