"""Deterministic fault-injection substrate: named failpoints.

Robustness code that is only exercised by real crashes is dead code
until the worst moment.  This module gives every recovery path in the
tree a *deterministic* trigger: a **failpoint** is a named injection
site (``failpoint("store.put.fail")``) that is a no-op until a fault
schedule activates it.  Schedules are seeded and hit-count based — no
clocks, no entropy — so a chaos run injects exactly the same faults at
exactly the same points on every machine, and the recovery counters it
gates (``faults.injected``, ``serve.shard_respawns``, ...) are exact.

Activation goes through the central knob registry
(:mod:`repro.config`): set ``REPRO_FAULTS`` to a schedule string, or
call :func:`install` from a test/benchmark.  With the knob unset every
``failpoint()`` call is one module-global load plus an ``is None``
check — the sites compile away to no-ops in production.

Schedule grammar (``docs/robustness.md`` has the full catalog)::

    REPRO_FAULTS = term [ ";" term ]...
    term         = site ":" hits [ ":" arg ]
    hits         = "*" | N | N "-" M | N "+"     (1-based hit numbers)

``store.put.fail:1`` fires on the first ``store.put.fail`` hit only;
``serve.shard.die:1-6`` on hits 1 through 6; ``service.worker.hang:2+``
on every hit from the second on; ``*`` on every hit.  The optional
``arg`` parameterizes the action (sleep seconds for ``sleep`` sites, a
message otherwise).  Unknown site names fail loudly at parse time.

Site action kinds (:data:`SITES`):

* ``raise`` — raise :class:`InjectedFault` at the call site;
* ``sleep`` — block for ``arg`` seconds (default
  :data:`DEFAULT_SLEEP_SECONDS`), simulating a slow component;
* ``exit`` — ``os._exit`` the process, but **only** when running in a
  child process (a pool worker or a spawned test process); in the main
  process the site degrades to ``raise`` so a schedule can never kill
  the gateway, the test runner or a user's shell;
* ``flag`` — return the term's ``arg`` (or ``True``) to the call site,
  which interprets it (e.g. poisoning a worker result).

Hit counters are per-process and thread-safe; every fired fault is
recorded in :data:`STATS` (surfaced by gateway ``/metrics`` and gated
by ``bench_compare.py --chaos``).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time

from . import config

#: Exit code used by ``exit``-kind failpoints so tests can tell an
#: injected crash apart from any genuine failure.
FAULT_EXIT_CODE = 43

#: Sleep applied by ``sleep``-kind failpoints without an ``arg``.
DEFAULT_SLEEP_SECONDS = 0.05

#: Every registered injection site: name -> action kind.  A schedule
#: naming an unknown site is a :class:`ValueError` at parse time.
SITES: dict[str, str] = {
    # worker pool (repro.service.session._optimize_payload)
    "service.worker.crash": "exit",
    "service.worker.hang": "sleep",
    "service.worker.poison": "flag",
    # serving gateway (repro.serve.gateway)
    "serve.shard.die": "raise",
    "serve.shard.slow": "sleep",
    "serve.stream.disconnect": "raise",
    # persistent plan-set store (repro.store.store.PlanSetStore.put)
    "store.put.fail": "raise",
    "store.put.locked": "raise",
    "store.put.torn": "exit",
    # LP substrate: every LP request (LinearProgramSolver.solve and each
    # problem of solve_many)
    "lp.solver.fail": "raise",
}


class InjectedFault(RuntimeError):
    """The exception raised by an active ``raise``-kind failpoint."""


class FaultStats:
    """Thread-safe per-process counters of fired faults."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.injected = 0
        self._by_site: dict[str, int] = {}

    def record(self, site: str) -> None:
        with self._lock:
            self.injected += 1
            self._by_site[site] = self._by_site.get(site, 0) + 1

    def reset(self) -> None:
        with self._lock:
            self.injected = 0
            self._by_site = {}

    def snapshot(self) -> dict:
        """``{"injected": total, "sites": {site: count}}``."""
        with self._lock:
            return {"injected": self.injected,
                    "sites": dict(sorted(self._by_site.items()))}


#: Process-wide fault counters (reset by :func:`reset`/:func:`install`).
STATS = FaultStats()


class _Term:
    """One parsed schedule term: a site, a hit window, an argument."""

    __slots__ = ("site", "first", "last", "arg")

    def __init__(self, site: str, first: int, last: float,
                 arg: str | None) -> None:
        self.site = site
        self.first = first
        self.last = last
        self.arg = arg

    def matches(self, hit: int) -> bool:
        return self.first <= hit <= self.last


def _parse_hits(site: str, text: str) -> tuple[int, float]:
    """Parse the ``hits`` field into an inclusive ``(first, last)``."""
    text = text.strip()
    if text == "*":
        return 1, math.inf
    try:
        if text.endswith("+"):
            first = int(text[:-1])
            last: float = math.inf
        elif "-" in text:
            lo, __, hi = text.partition("-")
            first, last = int(lo), int(hi)
        else:
            first = int(text)
            last = first
    except ValueError:
        raise ValueError(
            f"REPRO_FAULTS: bad hit window {text!r} for site {site!r} "
            f"(expected '*', N, N-M or N+)") from None
    if first < 1 or last < first:
        raise ValueError(
            f"REPRO_FAULTS: bad hit window {text!r} for site {site!r} "
            f"(hit numbers are 1-based and ranges ascending)")
    return first, last


class FaultSchedule:
    """A parsed fault schedule with per-site deterministic hit counts."""

    def __init__(self, terms: list[_Term], spec: str) -> None:
        self.spec = spec
        self._terms: dict[str, list[_Term]] = {}
        for term in terms:
            self._terms.setdefault(term.site, []).append(term)
        self._hits: dict[str, int] = {}
        self._lock = threading.Lock()

    def hit(self, site: str):
        """Count one hit of ``site``; fire when a term's window matches.

        Sites the schedule does not name return immediately without
        counting, so an active schedule perturbs only the sites it
        targets.
        """
        terms = self._terms.get(site)
        if terms is None:
            return None
        with self._lock:
            count = self._hits.get(site, 0) + 1
            self._hits[site] = count
        for term in terms:
            if term.matches(count):
                return _fire(site, term)
        return None


def _fire(site: str, term: _Term):
    """Perform one fired fault's action (see the module docstring)."""
    STATS.record(site)
    kind = SITES[site]
    if kind == "sleep":
        time.sleep(float(term.arg) if term.arg
                   else DEFAULT_SLEEP_SECONDS)
        return None
    if kind == "exit" and multiprocessing.parent_process() is not None:
        os._exit(FAULT_EXIT_CODE)
    if kind == "flag":
        return term.arg if term.arg is not None else True
    # "raise" sites — and "exit" sites reached in the main process,
    # which must never be killed by a schedule.
    suffix = f": {term.arg}" if term.arg else ""
    raise InjectedFault(f"injected fault at {site}{suffix}")


def parse_schedule(spec: str) -> FaultSchedule:
    """Parse a ``REPRO_FAULTS`` schedule string.

    Raises:
        ValueError: On malformed terms or unknown site names — a typo'd
            schedule must fail loudly, not silently inject nothing.
    """
    terms: list[_Term] = []
    for raw_term in spec.split(";"):
        raw_term = raw_term.strip()
        if not raw_term:
            continue
        fields = raw_term.split(":", 2)
        if len(fields) < 2:
            raise ValueError(
                f"REPRO_FAULTS: malformed term {raw_term!r} "
                f"(expected 'site:hits[:arg]')")
        site = fields[0].strip()
        if site not in SITES:
            known = ", ".join(sorted(SITES))
            raise ValueError(
                f"REPRO_FAULTS: unknown failpoint site {site!r} "
                f"(known sites: {known})")
        first, last = _parse_hits(site, fields[1])
        arg = fields[2].strip() if len(fields) > 2 else None
        terms.append(_Term(site, first, last, arg))
    if not terms:
        raise ValueError("REPRO_FAULTS: schedule names no terms")
    return FaultSchedule(terms, spec)


#: Sentinel: the environment knob has not been consulted yet.
_UNLOADED = object()

#: The active schedule — ``_UNLOADED`` before the first ``failpoint()``
#: call, ``None`` when faults are disabled, else a ``FaultSchedule``.
_schedule = _UNLOADED


def _load() -> FaultSchedule | None:
    """Resolve the schedule from ``REPRO_FAULTS`` (once, lazily)."""
    global _schedule
    spec = config.value("REPRO_FAULTS")
    _schedule = parse_schedule(spec) if spec else None
    return _schedule


def failpoint(site: str):
    """One injection site.  Inert (`None`, near-zero cost) unless a
    schedule targets ``site``; otherwise may raise, sleep, exit a child
    process, or return a flag value — see the module docstring.
    """
    schedule = _schedule
    if schedule is None:
        return None
    if schedule is _UNLOADED:
        schedule = _load()
        if schedule is None:
            return None
    return schedule.hit(site)


def active() -> bool:
    """Whether a fault schedule is currently installed.

    Fault path: chaos runs and tests ask whether a fault schedule is
    installed.
    """
    schedule = _schedule
    if schedule is _UNLOADED:
        schedule = _load()
    return schedule is not None


def install(spec: str | None) -> FaultSchedule | None:
    """Install a schedule programmatically (tests, chaos benchmarks).

    Overrides the environment knob for this process.  ``None``
    explicitly disables all failpoints.  Resets hit counts and
    :data:`STATS` so schedules compose deterministically across phases.
    """
    global _schedule
    _schedule = parse_schedule(spec) if spec is not None else None
    STATS.reset()
    return _schedule


def reset() -> None:
    """Forget any installed schedule and re-read ``REPRO_FAULTS`` on
    the next :func:`failpoint` call; zero :data:`STATS`."""
    global _schedule
    _schedule = _UNLOADED
    STATS.reset()


def snapshot() -> dict:
    """Fired-fault counters of this process (:class:`FaultStats`)."""
    return STATS.snapshot()
