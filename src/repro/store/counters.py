"""Observability counters for the persistent plan-set store.

Mirrors the counter style of :mod:`repro.core.stats` /
``docs/counters.md``: cheap monotone integers kept per store instance,
snapshotted as a flat dict for gateway metrics documents and the
recurring-workload benchmark (``benchmarks/bench_store.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class StoreCounters:
    """Monotone event counters of one :class:`repro.store.PlanSetStore`.

    Attributes:
        exact_hits: ``get`` calls that returned a stored document.
        misses: ``get`` calls that found nothing acceptable.
        near_hits: Nearest-neighbor lookups that produced a seed
            candidate (same family, different statistics).
        puts: Documents written (inserted or tightened).
        puts_rejected_coarser: Writes skipped because the store already
            held a tighter (lower-alpha) document for the signature.
        nn_queries: Nearest-neighbor queries executed.
        migrations: Schema migrations applied while opening the store.
        corruption_recoveries: Unreadable database files renamed aside
            and recreated empty (cold-start degradation).
        write_faults_absorbed: Write-through ``put`` failures (disk
            fault, locked database) absorbed by the warm-start cache
            tier — the in-memory tiers kept serving and no caller saw
            the error.
    """

    exact_hits: int = 0
    misses: int = 0
    near_hits: int = 0
    puts: int = 0
    puts_rejected_coarser: int = 0
    nn_queries: int = 0
    migrations: int = 0
    corruption_recoveries: int = 0
    write_faults_absorbed: int = 0

    def snapshot(self) -> dict[str, int]:
        """Flat ``name -> value`` dict (stable key order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
