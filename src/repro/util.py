"""Small shared utilities.

Currently: the bounded LRU mapping backing every memo cache in the
library (LP results, warm-start plan sets, run-time selection points).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from typing import Any


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

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove and return the stored value, or ``default``.

        Fault path: the warm-start cache drops an undecodable entry.
        """
        return self._data.pop(key, default)
