"""The sharded async serving gateway.

:class:`ServingGateway` turns a set of :class:`repro.service
.OptimizerSession` shards into a network service: an asyncio HTTP/1.1
server (stdlib only — ``asyncio.start_server`` plus a small hand-rolled
request parser) that admits optimize requests under tenant token
buckets, routes them by query signature so recurring queries land on
the shard holding their warm-start state, and streams progress events
live over NDJSON.

Threading model — three kinds of threads, one rule each:

* the **event loop thread** owns every mutable gateway structure
  (admission state, counters, router, the served plan sets' JSON
  texts).  Handlers touch them only from coroutines, so there are no
  locks;
* each **shard thread** (a one-worker ``ThreadPoolExecutor``) owns its
  ``OptimizerSession`` and runs that shard's optimizations strictly
  serially — which is exactly what keeps the warm-start cache, LP memo
  and plan-cost state coherent and hot.  Shard threads never touch
  gateway state; streaming events cross back into the loop via
  ``loop.call_soon_threadsafe``;
* the optional **launcher thread** (:func:`launch`) runs the event loop
  so synchronous callers — tests, benchmarks, notebooks — can drive the
  gateway with plain blocking calls through a :class:`GatewayHandle`.

Deadline semantics: ``deadline_seconds`` folds into the run's
cooperative :class:`~repro.core.Budget`, so a deadline expiry is not an
error — the optimizer descends the precision ladder coarse-rungs-first
and the response is the best completed rung as a ``"partial"`` with its
``(1 + alpha)``-guarantee (HTTP 200).  Only optimizer failures map to
HTTP 500.

Self-healing (see ``docs/robustness.md``): every shard is supervised —
an exception out of the shard *machinery* (as opposed to a per-query
error item) tears the shard down and respawns it with a fresh session,
warm state restored through the shared persistent store, and the
request retries once.  Requests that exhaust their attempts advance a
per-shard circuit breaker; an open breaker sheds requests straight to
the graceful-degradation path — a coarser cached plan set from the
store, served HTTP 200 ``"degraded"`` with its honest guarantee — then
half-open-probes the shard.  ``stop()`` never hangs on a wedged shard:
in-flight requests race the stop event and shed with clean 503s inside
a bounded window.  Every one of these paths has a deterministic
:mod:`repro.faults` failpoint (inert without a ``REPRO_FAULTS``
schedule) so chaos CI exercises them exactly.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .. import faults
from ..core import (Budget, PWLRRPAOptions, StoredPlanSet,
                    decode_plan_set, encode_plan_set, ladder_to)
from ..service import OptimizerSession, WarmStartCache, default_registry
from ..service.signature import query_signature
from ..store import PlanSetStore
from .admission import AdmissionController
from .counters import ResilienceCounters, ServingCounters
from .protocol import (OptimizeRequest, ProtocolError, event_to_wire,
                       ndjson_line, parse_optimize_request)
from .router import SignatureRouter

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}

#: HTTP status for each optimizer outcome.  ``partial`` and ``timeout``
#: are successful responses: the deadline contract is best-so-far with
#: a guarantee, not an error.  ``degraded`` is the graceful-degradation
#: outcome: a coarser cached plan set served from the persistent store
#: after shard failure, with its honest guarantee — a valid answer, so
#: HTTP 200, never a dropped connection or an unhandled 500.
_STATUS_HTTP = {"ok": 200, "cached": 200, "partial": 200,
                "timeout": 200, "degraded": 200, "error": 500}

#: Consecutive failed requests (both attempts exhausted) that open a
#: shard's circuit breaker.
BREAKER_THRESHOLD = 3

#: Requests shed straight to the degraded path while a breaker is open,
#: before the next request half-open-probes the shard.  Request-count
#: based, not clock based, so chaos runs are deterministic.
BREAKER_COOLDOWN = 2

#: Bound on the :meth:`ServingGateway.stop` shed window: how long stop
#: waits for in-flight requests to notice the stop event and answer
#: with a clean 503 before tearing the shards down.
STOP_SHED_SECONDS = 1.0


class _WireText:
    """A payload value that is already JSON text (a served plan set).

    :meth:`ServingGateway._response_bytes` splices the text into the
    body as it stands, so a plan set serialized once is never
    serialized again.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def _json_body(payload: dict) -> str:
    """``json.dumps(payload)`` with every :class:`_WireText` value
    spliced in as is.

    Same bytes as ``json.dumps`` with its default separators, in the
    payload's key order, for the string-keyed payloads the gateway
    sends.
    """
    members = []
    for key, value in payload.items():
        text = (value.text if isinstance(value, _WireText)
                else json.dumps(value))
        members.append(f"{json.dumps(key)}: {text}")
    return "{" + ", ".join(members) + "}"


def _discard(future) -> None:
    """Done-callback retrieving an abandoned future's exception.

    Stop/disconnect paths deliberately abandon executor futures (the
    shard thread may be hung on an injected fault); consuming the
    exception here keeps asyncio's "exception was never retrieved"
    warning out of the logs.
    """
    if not future.cancelled():
        future.exception()


@dataclass(frozen=True)
class GatewayConfig:
    """Tunables of one gateway instance.

    Attributes:
        host: Bind address.
        port: Bind port (0 = pick a free port; read it back from
            :attr:`ServingGateway.port`).
        shards: Number of optimizer shards (sessions).
        shard_workers: ``workers=`` for each shard's session.  The
            default 0 keeps each session serial inside its shard
            thread, which is the sweet spot for serving: per-shard
            process pools only pay off for single huge queries.
        scenario: Default scenario for requests that name none.
        resolution: Parameter-space resolution of the shard sessions.
        tenant_rate: Token-bucket refill rate per tenant (req/s).
        tenant_burst: Token-bucket capacity per tenant.
        max_pending: Global in-flight bound; arrivals beyond it get 429
            with ``Retry-After`` (overload backpressure).
        default_deadline_seconds: Deadline applied to requests that set
            none (``None`` = unbounded).
        max_body_bytes: Request-body size cap (HTTP 413 above it).
        warm_start: ``warm_start=`` for the shard sessions.
        store_path: Optional path of a :class:`repro.store.PlanSetStore`
            database shared by *all* shards (``":memory:"`` works too —
            one in-process store, still shared).  Routing pins a query
            signature to one shard, but the store makes every shard's
            results visible to every other shard's near-miss seeding,
            so a recurring query family warms the whole gateway.
            ``None`` disables the persistent tier.
    """

    host: str = "127.0.0.1"
    port: int = 0
    shards: int = 2
    shard_workers: int = 0
    scenario: str = "cloud"
    resolution: int = 2
    tenant_rate: float = 200.0
    tenant_burst: float = 100.0
    max_pending: int = 64
    default_deadline_seconds: float | None = None
    max_body_bytes: int = 4 * 1024 * 1024
    warm_start: bool = True
    store_path: str | None = None


@dataclass
class _Shard:
    """One optimizer shard: a session plus its single-thread executor.

    The breaker fields implement a per-shard circuit breaker over
    *requests* (not attempts): ``failures`` counts consecutive requests
    whose every attempt failed, ``breaker_open`` marks the breaker
    tripped, ``breaker_shed`` counts requests shed to the degraded path
    since it opened.  All three survive a shard respawn — the breaker
    protects against a shard that keeps dying right after respawn.
    """

    index: int
    session: OptimizerSession
    executor: ThreadPoolExecutor
    requests: int = 0
    failures: int = 0
    breaker_open: bool = False
    breaker_shed: int = 0


class _BadRequest(Exception):
    """Internal: malformed HTTP framing (before the JSON layer)."""


class _StopShed(Exception):
    """Internal: the stop event fired while a request was in flight."""


@dataclass
class _Outcome:
    """What a finished request contributes to the counters."""

    completed: bool = False
    deadline_partial: bool = False
    error: bool = False
    events: int = 0


class ServingGateway:
    """Sharded optimize-serving gateway.  See the module docstring.

    Args:
        config: Gateway tunables (defaults are test-friendly).
        registry: Scenario registry forwarded to every shard session.
    """

    def __init__(self, config: GatewayConfig | None = None,
                 registry=None) -> None:
        self.config = config or GatewayConfig()
        self._registry = registry
        self.router = SignatureRouter(self.config.shards)
        self.admission = AdmissionController(
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
            max_pending=self.config.max_pending)
        self.counters = ServingCounters()
        self.resilience = ResilienceCounters()
        self.shards: list[_Shard] = []
        self.store: PlanSetStore | None = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping: asyncio.Event | None = None
        self.port: int | None = None
        #: JSON text of each plan set this gateway has served, keyed by
        #: the plan set itself: every hit on a warm-start entry hands
        #: back the entry's one immutable (identity-hashed) instance, so
        #: its text is serialized once, and it is freed with the plan
        #: set when the entry is replaced or evicted.  Read and filled
        #: only on the event-loop thread; a plan set that dies on a
        #: shard thread removes its key there, in one dict deletion.
        self._wire_texts: weakref.WeakKeyDictionary = \
            weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Build the shard set and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("gateway already started")
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        if self.config.store_path is not None:
            self.store = PlanSetStore(self.config.store_path)
        for index in range(self.config.shards):
            self.shards.append(self._build_shard(index))
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=2 ** 16)
        self.port = self._server.sockets[0].getsockname()[1]

    def _build_shard(self, index: int) -> _Shard:
        """Fresh session + single-thread executor for shard ``index``."""
        cache = (WarmStartCache(store=self.store)
                 if self.store is not None else None)
        session = OptimizerSession(
            scenario=self.config.scenario,
            workers=self.config.shard_workers,
            resolution=self.config.resolution,
            warm_start=self.config.warm_start,
            cache=cache,
            registry=self._registry)
        executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-shard-{index}")
        return _Shard(index, session, executor)

    def _respawn_shard(self, shard: _Shard) -> _Shard:
        """Replace a fatally failed shard with a fresh one (crash heal).

        The old executor is shut down without waiting (its thread may
        be hung on the very fault that killed the shard) and the old
        session is closed on a daemon thread so the event loop never
        blocks on it.  Request/breaker accounting carries over — the
        breaker must see through respawns to catch a shard that keeps
        dying.  The fresh session shares the persistent store, so warm
        state survives the crash.
        """
        self.resilience.shard_respawns += 1
        shard.executor.shutdown(wait=False, cancel_futures=True)
        threading.Thread(target=shard.session.close, daemon=True,
                         name=f"repro-shard-{shard.index}-reap").start()
        fresh = self._build_shard(shard.index)
        fresh.requests = shard.requests
        fresh.failures = shard.failures
        fresh.breaker_open = shard.breaker_open
        fresh.breaker_shed = shard.breaker_shed
        self.shards[shard.index] = fresh
        return fresh

    @property
    def draining(self) -> bool:
        return self.admission.draining

    async def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting; wait for in-flight requests to finish.

        New arrivals get HTTP 503 immediately.  Returns ``True`` once
        the gateway is idle, ``False`` if ``timeout`` elapsed first
        (drain mode stays on either way).
        """
        self.admission.draining = True
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while self.admission.pending > 0:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.01)
        if self.store is not None:
            # Idle: checkpoint the shared store so its WAL is truncated
            # and the database file alone is complete on disk.
            try:
                self.store.flush()
            except Exception:  # reprolint: disable=REP601
                pass  # drain still succeeded; stop() will retry close
        return True

    async def stop(self) -> None:
        """Close the listener and tear down the shard sessions.

        Never hangs on a wedged shard: stop first raises the stop
        event, which every in-flight request races against (the single
        path answers a clean 503, streams are abandoned), waits up to
        :data:`STOP_SHED_SECONDS` for those responses to go out, then
        tears the shards down without waiting on their threads —
        sessions close on daemon threads, executors shut down with
        ``wait=False``.  A request admitted a microsecond before stop
        therefore completes or gets a clean 503; it is never dropped
        and never blocks shutdown.
        """
        self.admission.draining = True
        if self._stopping is not None:
            self._stopping.set()
        deadline = time.monotonic() + STOP_SHED_SECONDS
        while self.admission.pending > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        shards, self.shards = self.shards, []
        for shard in shards:
            shard.executor.shutdown(wait=False, cancel_futures=True)
            threading.Thread(target=shard.session.close, daemon=True,
                             name=f"repro-shard-{shard.index}-close"
                             ).start()
        if self.store is not None:
            self.store.close()
            self.store = None

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _read_request(self, reader) -> tuple[str, str, dict, bytes]:
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise _BadRequest("request line too long") from None
        if not line:
            raise ConnectionResetError
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest("malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for _ in range(100):
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                raise _BadRequest("header line too long") from None
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest("malformed header line")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest("too many headers")
        body = b""
        length_header = headers.get("content-length")
        if length_header is not None:
            try:
                length = int(length_header)
            except ValueError:
                raise _BadRequest("invalid content-length") from None
            if length < 0:
                raise _BadRequest("invalid content-length")
            if length > self.config.max_body_bytes:
                raise _BadRequest("payload too large", )
            body = await reader.readexactly(length)
        return method, target.split("?", 1)[0], headers, body

    @staticmethod
    def _response_bytes(status: int, payload: dict,
                        extra_headers: tuple = ()) -> bytes:
        body = _json_body(payload).encode()
        head = (f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n")
        for name, value in extra_headers:
            head += f"{name}: {value}\r\n"
        return head.encode("latin-1") + b"\r\n" + body

    @staticmethod
    def _stream_head() -> bytes:
        return (b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Connection: close\r\n\r\n")

    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                method, path, _headers, body = \
                    await self._read_request(reader)
            except _BadRequest as exc:
                status = 413 if "too large" in str(exc) else 400
                writer.write(self._response_bytes(
                    status, {"error": str(exc)}))
                await writer.drain()
                return
            except (ConnectionResetError, asyncio.IncompleteReadError):
                return
            await self._dispatch(method, path, body, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(self, method: str, path: str, body: bytes,
                        writer) -> None:
        if path == "/healthz":
            if method != "GET":
                await self._simple(writer, 405,
                                   {"error": "method not allowed"})
                return
            await self._simple(writer, 200, self.health_doc())
            return
        if path == "/metrics":
            if method != "GET":
                await self._simple(writer, 405,
                                   {"error": "method not allowed"})
                return
            await self._simple(writer, 200, self.metrics_doc())
            return
        if path == "/v1/optimize":
            if method != "POST":
                await self._simple(writer, 405,
                                   {"error": "method not allowed"})
                return
            await self._handle_optimize(body, writer)
            return
        await self._simple(writer, 404, {"error": f"no route {path}"})

    async def _simple(self, writer, status: int, payload: dict,
                      extra_headers: tuple = ()) -> None:
        writer.write(self._response_bytes(status, payload, extra_headers))
        await writer.drain()

    # ------------------------------------------------------------------
    # /v1/optimize
    # ------------------------------------------------------------------

    @staticmethod
    def _guess_tenant(body: bytes) -> str | None:
        """Best-effort tenant attribution for malformed-request counts."""
        try:
            doc = json.loads(body)
            tenant = doc.get("tenant")
            return tenant if isinstance(tenant, str) and tenant else None
        except (TypeError, ValueError, AttributeError):
            return None

    async def _handle_optimize(self, body: bytes, writer) -> None:
        try:
            request = parse_optimize_request(body)
        except ProtocolError as exc:
            tenant = self._guess_tenant(body)
            if tenant is not None:
                self.counters.tenant(tenant).malformed += 1
            await self._simple(writer, 400, {"error": str(exc)})
            return
        tenant = self.counters.tenant(request.tenant)
        unknown = self._unknown_scenario(request)
        if unknown is not None:
            tenant.malformed += 1
            await self._simple(writer, 400, {"error": unknown})
            return
        admission = self.admission.admit(request.tenant)
        if not admission.admitted:
            if admission.decision == "draining":
                tenant.rejected_draining += 1
                await self._simple(writer, 503, {"error": "draining"})
                return
            if admission.decision == "capacity":
                tenant.rejected_capacity += 1
            else:
                tenant.rejected_rate += 1
            await self._simple(
                writer, 429,
                {"error": f"rejected: {admission.decision}",
                 "retry_after": admission.retry_after},
                extra_headers=(("Retry-After",
                                f"{admission.retry_after:.2f}"),))
            return
        tenant.admitted += 1
        started = time.monotonic()
        signature = query_signature(request.query,
                                    scenario=self._scenario_name(request))
        shard = self.shards[self.router.route(signature)]
        shard.requests += 1
        outcome = _Outcome()
        try:
            if request.stream:
                tenant.streams += 1
                await self._serve_stream(shard, request, writer, outcome)
            else:
                await self._serve_single(shard, request, writer, outcome)
        finally:
            self.admission.release()
            self.counters.latency.record(time.monotonic() - started)
            if outcome.completed:
                tenant.completed += 1
            if outcome.deadline_partial:
                tenant.deadline_partials += 1
            if outcome.error:
                tenant.errors += 1
            tenant.events_streamed += outcome.events

    def _scenario_name(self, request: OptimizeRequest) -> str:
        return request.scenario or self.config.scenario

    def _unknown_scenario(self, request: OptimizeRequest) -> str | None:
        """The 400 message for a scenario the shards do not know.

        Checked against the registry the shard sessions resolve names
        in, at request time, so a scenario registered after start is
        served.  A name left to a shard would raise there, which the
        single path treats as shard-fatal.
        """
        if request.scenario is None:
            return None
        registry = (self._registry if self._registry is not None
                    else default_registry())
        try:
            registry.get(request.scenario)
        except KeyError as exc:
            return exc.args[0]
        return None

    def _request_budget(self, request: OptimizeRequest) -> Budget | None:
        """Fold the request deadline into its cooperative budget."""
        budget = (Budget.from_dict(request.budget)
                  if request.budget else None)
        deadline = request.deadline_seconds
        if deadline is None:
            deadline = self.config.default_deadline_seconds
        if deadline is not None:
            seconds = deadline if budget is None or budget.seconds is None \
                else min(budget.seconds, deadline)
            budget = Budget(seconds=seconds,
                            lps=budget.lps if budget else None,
                            steps=budget.steps if budget else None)
        return budget

    # ----- single-response path ---------------------------------------

    def _optimize_on_shard(self, shard: _Shard,
                           request: OptimizeRequest):
        """Runs on the shard thread: one blocking optimize call."""
        # Chaos failpoints (inert without a REPRO_FAULTS schedule): a
        # slow shard stalls here, a dying shard raises — the loop side
        # treats any exception from this call as shard-fatal.
        faults.failpoint("serve.shard.slow")
        faults.failpoint("serve.shard.die")
        budget = self._request_budget(request)
        if request.precision is not None or budget is not None:
            return shard.session.optimize(
                request.query, scenario=request.scenario,
                precision=request.precision, budget=budget)
        return shard.session.optimize(request.query,
                                      scenario=request.scenario)

    def _plan_set_text(self, plan_set: StoredPlanSet) -> _WireText:
        """The served plan set as JSON text, serialized on first use."""
        text = self._wire_texts.get(plan_set)
        if text is None:
            text = _WireText(json.dumps(encode_plan_set(plan_set)))
            self._wire_texts[plan_set] = text
            self.counters.plan_set_encodes += 1
        return text

    def _item_doc(self, item, shard_index: int) -> dict:
        doc = {"status": item.status,
               "signature": item.signature,
               "scenario": item.scenario,
               "shard": shard_index,
               "alpha": item.alpha,
               "guarantee": item.guarantee,
               "seconds": item.seconds}
        if item.ok:
            doc["plan_set"] = self._plan_set_text(item.plan_set)
            doc["plans"] = len(item.plan_set.entries)
        if item.error:
            doc["error"] = item.error
        return doc

    async def _attempt(self, shard: _Shard, request: OptimizeRequest):
        """One optimize attempt on a shard, racing the stop event.

        Returns the shard's :class:`~repro.service.BatchItem`.  Raises
        :class:`_StopShed` when :meth:`stop` fires first (the executor
        future is abandoned — its exception, if any, is consumed by
        :func:`_discard`), and propagates any exception the shard
        machinery raised (shard-fatal: the caller respawns).
        """
        future = self._loop.run_in_executor(
            shard.executor, self._optimize_on_shard, shard, request)
        stop_wait = asyncio.ensure_future(self._stopping.wait())
        try:
            done, __ = await asyncio.wait(
                {future, stop_wait},
                return_when=asyncio.FIRST_COMPLETED)
        finally:
            stop_wait.cancel()
        if future not in done:
            future.add_done_callback(_discard)
            raise _StopShed
        return future.result()

    def _note_shard_success(self, shard: _Shard) -> None:
        """A request succeeded: reset failures, close an open breaker."""
        shard.failures = 0
        if shard.breaker_open:  # successful half-open probe
            shard.breaker_open = False
            shard.breaker_shed = 0

    def _note_shard_failure(self, shard: _Shard) -> None:
        """A request exhausted its attempts: advance the breaker."""
        shard.failures += 1
        if shard.breaker_open:
            # Failed half-open probe: re-open for another cooldown.
            shard.breaker_shed = 0
            self.resilience.breaker_opens += 1
        elif shard.failures >= BREAKER_THRESHOLD:
            shard.breaker_open = True
            shard.breaker_shed = 0
            self.resilience.breaker_opens += 1

    async def _serve_single(self, shard: _Shard,
                            request: OptimizeRequest, writer,
                            outcome: _Outcome) -> None:
        if shard.breaker_open and shard.breaker_shed < BREAKER_COOLDOWN:
            # Open breaker: shed straight to the degraded path without
            # touching the (recently repeatedly failing) shard.
            shard.breaker_shed += 1
            await self._serve_degraded(shard, request, writer, outcome,
                                       error="breaker open")
            return
        item = None
        last_error = None
        for __ in range(2):
            try:
                item = await self._attempt(shard, request)
            except _StopShed:
                self.resilience.stop_sheds += 1
                await self._simple(writer, 503, {"error": "stopping"})
                return
            except Exception as exc:  # reprolint: disable=REP601
                # Shard-fatal (injected death, wedged session, optimizer
                # machinery bug): heal by respawning, then retry once.
                shard = self._respawn_shard(shard)
                item = None
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            if item.status != "error":
                break
            # Error item (e.g. a poisoned worker result): retry once on
            # the same, still-healthy shard.
            last_error = item.error
        if item is not None and item.status != "error":
            self._note_shard_success(shard)
            outcome.completed = True
            outcome.deadline_partial = item.status in ("partial",
                                                       "timeout")
            await self._simple(writer, _STATUS_HTTP[item.status],
                               self._item_doc(item, shard.index))
            return
        self._note_shard_failure(shard)
        await self._serve_degraded(shard, request, writer, outcome,
                                   error=last_error or "shard failure")

    def _session_signature(self, request: OptimizeRequest) -> str:
        """The signature shard sessions cache/store this request under.

        Routing uses a coarser signature (scenario only); the degraded
        path must look the plan set up under the *session's* key, which
        folds in resolution and — for anytime requests — the re-targeted
        approximation factor.
        """
        options = None
        if request.precision is not None or (
                self._request_budget(request) is not None):
            options = PWLRRPAOptions(
                approximation_factor=float(request.precision or 0.0))
        return query_signature(request.query,
                               scenario=self._scenario_name(request),
                               resolution=self.config.resolution,
                               options=options)

    async def _serve_degraded(self, shard: _Shard,
                              request: OptimizeRequest, writer,
                              outcome: _Outcome, *,
                              error: str | None = None) -> None:
        """Last line of defense: serve a cached plan set from the store.

        When the shards cannot answer (repeated death, open breaker),
        any plan set the persistent store holds for the signature — of
        *any* guarantee rung — beats a 500: the response is HTTP 200
        with ``"status": "degraded"`` and the entry's honest
        ``alpha``/``guarantee`` tags, so the client knows exactly what
        it got.  Only when the store has nothing does the request fail
        with a 500 (still a well-formed response, never a dropped
        connection).
        """
        doc = None
        if self.store is not None:
            try:
                doc = self.store.get(self._session_signature(request))
            except Exception:  # reprolint: disable=REP601
                doc = None  # store down too: fall through to 500
        plan_set = None
        if doc is not None:
            try:
                plan_set = decode_plan_set(doc)
            except Exception:  # reprolint: disable=REP601
                plan_set = None  # undecodable entry: fall through
        if plan_set is None:
            outcome.error = True
            await self._simple(writer, 500,
                               {"error": error or "shard unavailable"})
            return
        self.resilience.degraded_responses += 1
        outcome.completed = True
        payload = {"status": "degraded",
                   "signature": self._session_signature(request),
                   "scenario": self._scenario_name(request),
                   "shard": shard.index,
                   "alpha": float(doc.get("alpha", 0.0)),
                   "guarantee": float(doc.get("guarantee", 1.0)),
                   "seconds": 0.0,
                   "plan_set": self._plan_set_text(plan_set),
                   "plans": len(plan_set.entries)}
        if error:
            payload["degraded_reason"] = error
        await self._simple(writer, _STATUS_HTTP["degraded"], payload)

    # ----- streaming path ---------------------------------------------

    def _stream_on_shard(self, shard: _Shard, request: OptimizeRequest,
                         queue: asyncio.Queue) -> None:
        """Runs on the shard thread: iterate the run, push wire docs.

        Every pushed object crosses into the event loop through
        ``call_soon_threadsafe``; a ``None`` sentinel terminates the
        stream.  The trailing ``done`` line summarizes the run the way
        a non-streaming response would (status, achieved alpha,
        guarantee).
        """
        push = lambda doc: self._loop.call_soon_threadsafe(  # noqa: E731
            queue.put_nowait, doc)
        ladder = (ladder_to(request.precision)
                  if request.precision is not None else None)
        target = (request.precision if request.precision is not None
                  else 0.0)
        best = None
        status = "timeout"
        try:
            for event in shard.session.optimize_iter(
                    request.query, scenario=request.scenario,
                    precision_ladder=ladder,
                    budget=self._request_budget(request)):
                if event.kind == "rung_completed":
                    best = event
                push(event_to_wire(event))
            if best is not None:
                status = ("ok" if best.alpha <= target + 1e-12
                          else "partial")
        except Exception as exc:  # reprolint: disable=REP601
            # Surfaced to the client as an error line + "error" status.
            status = "error"
            push({"kind": "error", "error": str(exc)})
        done = {"kind": "done", "status": status}
        if best is not None:
            done.update(alpha=best.alpha, guarantee=best.guarantee,
                        plans=best.plan_count)
        push(done)
        push(None)

    async def _serve_stream(self, shard: _Shard,
                            request: OptimizeRequest, writer,
                            outcome: _Outcome) -> None:
        """Relay one NDJSON stream, racing the stop event per line.

        On stop the stream is abandoned mid-flight: the client sees EOF
        before the ``done`` line and raises
        :class:`~repro.serve.client.StreamInterrupted` — a typed,
        retryable signal, never a hang.  The ``serve.stream.disconnect``
        failpoint injects the same mid-stream cut by hard-resetting the
        socket after a written line.
        """
        queue: asyncio.Queue = asyncio.Queue()
        worker = self._loop.run_in_executor(
            shard.executor, self._stream_on_shard, shard, request, queue)
        writer.write(self._stream_head())
        abandoned = False
        stop_wait = asyncio.ensure_future(self._stopping.wait())
        try:
            while True:
                getter = asyncio.ensure_future(queue.get())
                done, __ = await asyncio.wait(
                    {getter, stop_wait},
                    return_when=asyncio.FIRST_COMPLETED)
                if getter not in done:
                    # Stopping: abandon the stream (possibly hung shard
                    # thread) instead of blocking shutdown on it.
                    getter.cancel()
                    abandoned = True
                    self.resilience.stop_sheds += 1
                    return
                doc = getter.result()
                if doc is None:
                    break
                if doc.get("kind") == "done":
                    outcome.completed = doc["status"] in (
                        "ok", "partial")
                    outcome.deadline_partial = doc["status"] == "partial"
                    outcome.error = doc["status"] == "error"
                else:
                    outcome.events += 1
                writer.write(ndjson_line(doc))
                await writer.drain()
                try:
                    faults.failpoint("serve.stream.disconnect")
                except faults.InjectedFault:
                    # Injected mid-stream cut: hard-reset the socket so
                    # the client observes a reset, then keep consuming
                    # the worker's queue below so the shard stays clean.
                    writer.transport.abort()
                    break
        finally:
            stop_wait.cancel()
            if abandoned:
                worker.add_done_callback(_discard)
            else:
                await worker

    # ------------------------------------------------------------------
    # Introspection documents
    # ------------------------------------------------------------------

    def health_doc(self) -> dict:
        return {"status": "draining" if self.draining else "ok",
                "shards": len(self.shards),
                "pending": self.admission.pending}

    def metrics_doc(self) -> dict:
        doc = self.counters.snapshot()
        doc["routing"] = self.router.snapshot()
        doc["draining"] = self.draining
        doc["pending"] = self.admission.pending
        doc["shards"] = [
            {"index": shard.index,
             "requests": shard.requests,
             "breaker_open": shard.breaker_open,
             "pool_spawns": shard.session.pool_spawns,
             "pool_respawns": shard.session.pool_respawns,
             "lp_cache_hits": shard.session.lp_cache_hits_total,
             "store_seed_hits": shard.session.store_seed_hits,
             "store_seed_misses": shard.session.store_seed_misses}
            for shard in self.shards]
        doc["resilience"] = self.resilience.snapshot()
        doc["faults"] = faults.snapshot()
        if self.store is not None:
            doc["store"] = self.store.snapshot()
        return doc


# ----------------------------------------------------------------------
# Synchronous front end
# ----------------------------------------------------------------------

class GatewayHandle:
    """Blocking facade over a gateway running in a background loop.

    Produced by :func:`launch`; usable as a context manager.  All
    methods are thread-safe: they schedule coroutines onto the
    gateway's loop and wait.
    """

    def __init__(self, gateway: ServingGateway,
                 loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.gateway = gateway
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.gateway.config.host

    @property
    def port(self) -> int:
        return self.gateway.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def drain(self, timeout: float | None = 30.0) -> bool:
        """Blocking :meth:`ServingGateway.drain`."""
        future = asyncio.run_coroutine_threadsafe(
            self.gateway.drain(timeout), self._loop)
        return future.result(None if timeout is None else timeout + 5)

    def close(self, timeout: float = 30.0) -> None:
        """Stop the gateway, its loop and its thread (idempotent)."""
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.gateway.stop(), self._loop)
        future.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> GatewayHandle:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def launch(config: GatewayConfig | None = None,
           registry=None) -> GatewayHandle:
    """Start a gateway on a background event loop and wait until ready.

    Raises whatever :meth:`ServingGateway.start` raised (e.g. a bind
    failure) in the calling thread.
    """
    gateway = ServingGateway(config, registry)
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    boot_error: list[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(gateway.start())
        except BaseException as exc:  # surface bind errors to launcher
            boot_error.append(exc)
            ready.set()
            loop.close()
            return
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="repro-gateway",
                              daemon=True)
    thread.start()
    ready.wait()
    if boot_error:
        raise boot_error[0]
    return GatewayHandle(gateway, loop, thread)
