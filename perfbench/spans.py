"""In-memory span tracing around the public calls of each layer.

The traced run wraps public functions and methods of the program from
the benchmark's side (nothing in ``src/`` changes).  Each call becomes a
span: name, start, end, the enclosing span of the same thread, and the
thread.  Spans live in per-thread arrays while the run goes on and are
written out when it ends.  A span's *self time* is its duration minus
the durations of the spans nested directly in it, so the self times of
a root span and everything below it add up to the root's duration.

Spans are linked only within a thread.  The gateway runs the session on
shard threads and encodes responses on its event-loop thread, so serve
and service numbers are per-call aggregates, not per-request chains.
"""

from __future__ import annotations

import threading
import time
from array import array

import numpy as np


class _ThreadSpans:
    """Span arrays of one thread (appended only by that thread)."""

    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()


class SpanRecorder:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_ThreadSpans] = []
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def _thread_spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(threading.get_ident())
            with self._lock:
                self._buffers.append(spans)
            self._local.spans = spans
        return spans

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        name_id = self.name_id(name)

        def traced(*args, **kwargs):
            spans = self._thread_spans()
            index = spans.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                spans.close(index)

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str):
        """Context manager recording one span (for the benchmark's own
        root spans)."""
        return _Span(self._thread_spans(), self.name_id(name))

    def table(self) -> SpanTable:
        """All spans recorded so far, as one :class:`SpanTable`."""
        with self._lock:
            buffers = list(self._buffers)
        names, parents, starts, ends, threads = [], [], [], [], []
        offset = 0
        for spans in buffers:
            # Slices copy, so no live array is exported while its thread
            # may still append.
            count = len(spans.start)
            parent = np.frombuffer(spans.parent[:count], dtype=np.int32)
            parents.append(np.where(parent >= 0, parent + offset, -1))
            names.append(np.frombuffer(spans.name[:count], dtype=np.int32))
            starts.append(np.frombuffer(spans.start[:count], dtype=float))
            ends.append(np.frombuffer(spans.end[:count], dtype=float))
            threads.append(np.full(count, spans.thread_id, dtype=np.int64))
            offset += count
        if not buffers:
            return SpanTable(list(self.names), [], [], [], [], [])
        return SpanTable(list(self.names), *(
            np.concatenate(column)
            for column in (names, parents, starts, ends, threads)))


class _Span:
    def __init__(self, spans: _ThreadSpans, name_id: int) -> None:
        self._spans = spans
        self._name_id = name_id
        self.index = -1

    def __enter__(self) -> _Span:
        self.index = self._spans.open(self._name_id)
        return self

    def __exit__(self, *exc_info) -> None:
        self._spans.close(self.index)


class SpanTable:
    """Finished spans as parallel arrays.

    ``parent`` holds the index of the enclosing span (``-1`` for a
    root); a parent always has a lower index than its children.
    """

    def __init__(self, names: list[str], name, parent, start, end,
                 thread) -> None:
        self.names = names
        self.name = np.asarray(name, dtype=np.int32)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.start = np.asarray(start, dtype=float)
        self.end = np.asarray(end, dtype=float)
        self.thread = np.asarray(thread, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.start)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Duration minus the durations of the direct children."""
        duration = self.duration
        nested = self.parent >= 0
        covered = np.bincount(self.parent[nested],
                              weights=duration[nested],
                              minlength=len(self))
        return duration - covered

    def root(self) -> np.ndarray:
        """Index of each span's outermost enclosing span."""
        root = np.where(self.parent >= 0, self.parent,
                        np.arange(len(self)))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                return root
            root = nxt

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def save(self, path) -> None:
        """Write the spans out (NumPy ``.npz``)."""
        np.savez_compressed(path, names=np.array(self.names), name=self.name,
                            parent=self.parent, start=self.start,
                            end=self.end, thread=self.thread)


# ----------------------------------------------------------------------
# The public calls each layer is timed at
# ----------------------------------------------------------------------

def _targets():
    """``(owner, attribute, span name, is_static)`` for every wrapped
    call.  Module-level functions are wrapped at each module that binds
    them, because ``from x import f`` copies the reference."""
    from repro.core.pwl_backend import PWLBackend
    from repro.core.run import OptimizationRun
    from repro.geometry.polytope import ConvexPolytope
    from repro.lp.solver import LinearProgramSolver
    from repro.serve import gateway
    from repro.service import cache, session
    from repro.store.store import PlanSetStore
    return [
        (OptimizationRun, "run", "core.run", False),
        (PWLBackend, "dominance", "cost.dominance", False),
        (PWLBackend, "dominance_many", "cost.dominance", False),
        (PWLBackend, "dominance_many_rev", "cost.dominance", False),
        (PWLBackend, "accumulate", "cost.accumulate", False),
        (PWLBackend, "scan_cost", "cost.accumulate", False),
        (PWLBackend, "join_local_cost", "cost.accumulate", False),
        (ConvexPolytope, "__init__", "geometry.polytope", False),
        (PWLBackend, "reduce_region", "geometry.reduce", False),
        (PWLBackend, "region_is_empty", "geometry.emptiness", False),
        (PWLBackend, "regions_empty_many", "geometry.emptiness", False),
        (LinearProgramSolver, "solve", "lp.solve", False),
        (LinearProgramSolver, "solve_many", "lp.solve", False),
        (session.OptimizerSession, "optimize", "service.optimize", False),
        (session, "query_signature", "service.signature", False),
        (gateway, "query_signature", "service.signature", False),
        (session, "decode_plan_set", "service.decode", False),
        (cache, "decode_plan_set", "service.decode", False),
        (PlanSetStore, "get", "store.get", False),
        (PlanSetStore, "nearest", "store.nearest", False),
        (PlanSetStore, "put", "store.put", False),
        (gateway, "encode_plan_set", "serve.encode", False),
        (gateway.ServingGateway, "_response_bytes", "serve.encode", True),
    ]


class Instrumentation:
    """Installs and removes the span wrappers of a recorder."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple] = []

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, static in _targets():
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            fn = original.__func__ if static else original
            traced = self.recorder.wrap(name, fn)
            setattr(owner, attr, staticmethod(traced) if static else traced)
            self._saved.append((owner, attr, original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
