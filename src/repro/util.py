"""Small shared utilities.

Currently: the bounded LRU mapping backing every memo cache in the
library (LP results, warm-start plan sets, run-time selection points),
and the process-wide switch that forces the scalar geometry kernels.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from typing import Any

from . import config


def scalar_kernels_enabled() -> bool:
    """Whether ``REPRO_SCALAR_KERNELS`` forces the scalar geometry kernels.

    The vectorized kernels (batched emptiness LPs, NumPy unaligned
    dominance and PWL addition) produce bit-identical results to the
    original per-piece-pair Python loops; setting ``REPRO_SCALAR_KERNELS``
    to a non-empty value other than ``0`` selects the scalar loops anyway.
    The equivalence test suite runs both sides of this switch against each
    other, and it doubles as an escape hatch for debugging.

    Read per call (the check is trivially cheap next to any LP) so tests
    can flip the environment variable with ``monkeypatch.setenv``.
    """
    return config.enabled("REPRO_SCALAR_KERNELS")


class BoundedLRU:
    """A mapping bounded to ``maxsize`` entries with LRU eviction.

    Args:
        maxsize: Maximum number of retained entries.  ``0`` disables the
            cache (nothing is ever stored), matching the convention of
            every ``cache_size`` knob in this library.
    """

    __slots__ = ("maxsize", "_data")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 0:
            raise ValueError("cache maxsize must be >= 0")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the stored value (refreshing recency) or ``default``."""
        if key not in self._data:
            return default
        self._data.move_to_end(key)
        return self._data[key]

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh a value, evicting the least recently used."""
        if self.maxsize == 0:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def items(self) -> list[tuple[Hashable, Any]]:
        """Snapshot of ``(key, value)`` pairs, least recently used first."""
        return list(self._data.items())
