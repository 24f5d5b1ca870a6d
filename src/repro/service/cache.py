"""Warm-start cache: serialized Pareto plan sets keyed by query signature.

The MPQ workflow (Figure 2 of the paper) already splits optimization from
run-time selection; a long-running service takes the next step and reuses
*whole optimization outcomes* across queries.  The cache stores the JSON
documents produced by :mod:`repro.core.serialize` in a memory tier
bounded by an LRU policy, optionally backed by a persistent
:class:`repro.store.PlanSetStore` so warm state survives process
restarts and is shared between gateway shards.  A memory entry keeps the
:class:`~repro.core.StoredPlanSet` decoded from its document — handed
over by the put that installed it, or decoded by its first
:meth:`WarmStartCache.load` — so every hit selects from that one
read-only instance instead of decoding the document again.

Since the anytime redesign every entry carries an **alpha tag**: the
approximation rung the producing run achieved (``0`` for exact results,
the rung's alpha for plan sets an interrupted precision-ladder run left
behind).  Lookups state the loosest guarantee they accept
(``load(signature, max_alpha=...)``), so a partial anytime result can
never masquerade as an exact one, and a coarser entry never overwrites a
tighter one.
"""

from __future__ import annotations

import threading

from ..core import StoredPlanSet, decode_plan_set
from ..util import BoundedLRU


class _Entry:
    """A memory-tier record: a document, its alpha tag and, once the
    document has been decoded (by the put that installed the record or
    by a :meth:`WarmStartCache.load`), its plan set.

    A put that replaces the entry installs a new record, so a decode
    still running for the old one can only ever attach to the old one.
    """

    __slots__ = ("doc", "alpha", "plan_set")

    def __init__(self, doc: dict, alpha: float,
                 plan_set: StoredPlanSet | None = None) -> None:
        self.doc = doc
        self.alpha = alpha
        self.plan_set = plan_set


class WarmStartCache:
    """Bounded LRU cache of serialized plan-set documents.

    Accesses are lock-protected: an optimizer session's pool feeds late
    (post-deadline) results into the cache from its executor callback
    thread while the main thread keeps reading it, and a gateway encodes
    a served plan set on its loop thread while the shard thread serves
    the next hit.  Decoding runs outside the lock.

    Args:
        maxsize: Maximum number of in-memory entries (LRU eviction);
            ``0`` disables the in-memory tier (the store tier, when
            configured, still works).
        store: Optional :class:`repro.store.PlanSetStore` acting as the
            persistent tier behind memory: misses consult it, puts write
            through to it (the store applies the same
            coarser-never-overwrites-tighter rule), and one store can be
            shared by many caches (e.g. gateway shards).  The cache does
            not own the store's lifecycle — whoever created it closes
            it.
    """

    def __init__(self, maxsize: int = 128, store=None) -> None:
        self.maxsize = maxsize
        self.store = store
        self._data = BoundedLRU(maxsize)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, signature: str) -> bool:
        with self._lock:
            return signature in self._data

    def _store_entry(self, signature: str,
                     max_alpha: float | None = None) -> _Entry | None:
        """Read an entry from the persistent store tier, if any.

        Store errors (a closed or concurrently rebuilt store) count as
        misses — the query is re-optimized rather than failing.
        """
        if self.store is None:
            return None
        try:
            doc = self.store.get(signature, max_alpha=max_alpha)
        except Exception:  # reprolint: disable=REP601
            return None  # store unavailable: counts as a miss
        if doc is None:
            return None
        return _Entry(doc, float(doc.get("alpha", 0.0)))

    def _lookup(self, signature: str,
                max_alpha: float | None) -> _Entry | None:
        """The entry a lookup serves, counting one hit or one miss."""
        with self._lock:
            entry = self._data.get(signature)
            if entry is not None:
                self.hits += 1
        if entry is None:
            entry = self._store_entry(signature)
            with self._lock:
                if entry is None:
                    self.misses += 1
                    return None
                self._data.put(signature, entry)
                self.hits += 1
        if max_alpha is not None and entry.alpha > max_alpha + 1e-12:
            # Too coarse in memory; a tighter entry may live in the
            # store (written by another shard or process).
            tighter = self._store_entry(signature, max_alpha=max_alpha)
            with self._lock:
                if tighter is None:
                    self.hits -= 1  # reclassify: tag too coarse is a miss
                    self.misses += 1
                    return None
                self._data.put(signature, tighter)
            return tighter
        return entry

    def load(self, signature: str,
             max_alpha: float | None = None) -> StoredPlanSet | None:
        """Return the cached plan set, or ``None`` on a miss.

        Args:
            signature: Cache key.
            max_alpha: Only accept entries whose approximation tag is at
                most this loose — an entry produced by an interrupted
                anytime run (rung alpha above the caller's target) then
                counts as a miss instead of silently serving a coarser
                guarantee.  ``None`` accepts any tag.  When the
                in-memory entry is too coarse, the store tier is still
                consulted — another shard or process sharing it may
                have written a tighter one.

        The first load of a memory entry decodes its document; later
        loads return that same read-only instance until the entry is
        evicted or replaced.  An undecodable document counts as a miss
        and leaves the memory tier, so the re-optimized plan set takes
        its place.
        """
        entry = self._lookup(signature, max_alpha)
        if entry is None:
            return None
        if entry.plan_set is not None:
            return entry.plan_set
        try:
            plan_set = decode_plan_set(entry.doc)
        except Exception:
            with self._lock:
                self.hits -= 1  # reclassify: undecodable is a miss
                self.misses += 1
                if self._data.get(signature) is entry:
                    self._data.pop(signature)
            return None
        with self._lock:
            # Attach to the record the document was read from: a put
            # that replaced it meanwhile keeps its own document.
            if entry.plan_set is None:
                entry.plan_set = plan_set
            return entry.plan_set

    def put(self, signature: str, doc: dict, alpha: float = 0.0, *,
            plan_set: StoredPlanSet | None = None) -> None:
        """Insert a plan-set document, writing through to the store.

        ``alpha`` tags the entry with the guarantee rung the producing
        run achieved (``0`` = exact).  A coarser entry never overwrites
        a tighter one under the same signature — an interrupted anytime
        run cannot degrade a previously cached exact result.  A put that
        does replace an entry drops the old entry's decoded plan set
        with it.  ``plan_set`` is the caller's decode of ``doc``, if it
        has one: the new entry keeps it, so no hit decodes ``doc``
        again.
        """
        alpha = float(alpha)
        if self.store is not None:
            # Write-through to the persistent store tier; the store
            # applies the coarser-never-overwrites-tighter rule itself
            # and joins family metadata registered at miss time.  The
            # stored document must carry the tag it is cached under.
            store_doc = doc
            if abs(float(doc.get("alpha", 0.0)) - alpha) > 1e-12:
                store_doc = dict(doc, alpha=alpha)
            try:
                self.store.put(signature, store_doc)
            except Exception:
                # Persistent tier unavailable (disk fault, locked or
                # closed database): absorb — the memory tier still
                # serves — but count it so operators can see the store
                # silently shedding writes.
                self.store.counters.write_faults_absorbed += 1
        with self._lock:
            existing = self._data.get(signature)
            if existing is not None and existing.alpha < alpha - 1e-12:
                return  # keep the tighter entry
            self._data.put(signature, _Entry(doc, alpha, plan_set))
