"""Admission control: tenant token buckets and overload backpressure.

Every request passes through one :class:`AdmissionController` check
before any optimizer work is scheduled.  Two independent gates apply,
in order:

1. **Drain** — a draining gateway admits nothing (HTTP 503); in-flight
   requests run to completion.
2. **Capacity** — a global bound on in-flight requests.  Once the
   gateway holds ``max_pending`` admitted-but-unfinished requests, new
   arrivals are shed with HTTP 429 regardless of tenant, because
   queueing them further would only grow latency without growing
   throughput (the shards are already saturated).
3. **Tenant rate** — a classic token bucket per tenant: ``burst``
   tokens capacity, refilled continuously at ``rate`` tokens/second.
   A request costs one token; an empty bucket means HTTP 429 with a
   ``Retry-After`` telling the client when the next token lands.

The controller is deliberately synchronous and lock-free: the gateway
calls it only from its event-loop thread, so plain attribute updates
are safe.  Time is injectable for tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass


class TokenBucket:
    """A continuously-refilled token bucket.

    Args:
        rate: Refill rate in tokens per second (must be positive).
        burst: Bucket capacity; also the initial fill, so a quiet
            tenant can burst this many requests instantly.
    """

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp: float | None = None

    def _refill(self, now: float) -> None:
        if self._stamp is not None and now > self._stamp:
            self._tokens = min(self.burst,
                               self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def try_acquire(self, now: float) -> float:
        """Take one token if available.

        Returns:
            ``0.0`` on success, else the number of seconds until the
            bucket next holds a full token (the ``Retry-After`` value).
        """
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        return (1.0 - self._tokens) / self.rate


@dataclass(frozen=True)
class Admission:
    """Outcome of one admission check.

    Attributes:
        decision: ``"admit"``, ``"rate"`` (tenant bucket empty),
            ``"capacity"`` (global pending bound hit) or ``"draining"``.
        retry_after: Suggested client back-off in seconds for the two
            429 decisions (0 otherwise).
    """

    decision: str
    retry_after: float = 0.0

    @property
    def admitted(self) -> bool:
        return self.decision == "admit"


class AdmissionController:
    """Gatekeeper combining drain state, capacity, and tenant buckets.

    The gateway calls :meth:`admit` on arrival and :meth:`release` when
    a request finishes (any outcome); the difference is the pending
    count the capacity gate reads.
    """

    def __init__(self, tenant_rate: float, tenant_burst: float,
                 max_pending: int,
                 clock=time.monotonic) -> None:
        self.tenant_rate = float(tenant_rate)
        self.tenant_burst = float(tenant_burst)
        self.max_pending = int(max_pending)
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self.pending = 0
        self.draining = False

    def bucket(self, tenant: str) -> TokenBucket:
        """The tenant's bucket, created on first sight."""
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.tenant_rate, self.tenant_burst)
            self._buckets[tenant] = bucket
        return bucket

    def admit(self, tenant: str, now: float | None = None) -> Admission:
        """Run the three gates for one request; counts it if admitted."""
        if self.draining:
            return Admission("draining")
        if self.pending >= self.max_pending:
            # Shards drain roughly one request per slot; hint a retry
            # after one bucket-refill interval, floored at a second.
            return Admission("capacity",
                             retry_after=max(1.0, 1.0 / self.tenant_rate))
        wait = self.bucket(tenant).try_acquire(
            self._clock() if now is None else now)
        if wait > 0:
            return Admission("rate", retry_after=math.ceil(wait * 100) / 100)
        self.pending += 1
        return Admission("admit")

    def release(self) -> None:
        """Mark one previously admitted request finished."""
        self.pending = max(0, self.pending - 1)
