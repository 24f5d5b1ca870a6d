"""Join graphs and connectivity queries.

The structure of the join graph (chain vs. star) "is known to have
significant impact on optimizer performance" (Section 7, citing Steinbrunn
et al.); the paper evaluates both shapes separately.  This module provides
the graph abstraction used for

* Cartesian-product postponement: a split of a table set is *connected*
  when at least one join predicate crosses it, and the plan enumerator
  prefers connected splits (Section 7: "postpones Cartesian product joins
  as much as possible ... commonly applied in state-of-the-art optimizers
  such as the Postgres optimizer");
* enumerating connected sub-sets for tests and analysis.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .predicates import JoinPredicate


class JoinGraph:
    """Undirected graph with tables as nodes and join predicates as edges.

    Args:
        tables: All table names of the query.
        predicates: The join predicates (edges).
    """

    def __init__(self, tables: Sequence[str],
                 predicates: Iterable[JoinPredicate]) -> None:
        self.tables = tuple(tables)
        self.predicates = tuple(predicates)
        self._adjacent: dict[str, set[str]] = {t: set() for t in self.tables}
        for pred in self.predicates:
            if (pred.left_table not in self._adjacent
                    or pred.right_table not in self._adjacent):
                raise ValueError(
                    f"predicate {pred!r} references a table outside "
                    f"the query")
            self._adjacent[pred.left_table].add(pred.right_table)
            self._adjacent[pred.right_table].add(pred.left_table)

    def is_connected(self, subset: frozenset[str] | None = None) -> bool:
        """Return whether ``subset`` (default: all tables) is connected."""
        nodes = set(subset) if subset is not None else set(self.tables)
        if not nodes:
            return True
        start = next(iter(nodes))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in self._adjacent[node]:
                if nxt in nodes and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen == nodes

    def split_is_connected(self, left: frozenset[str],
                           right: frozenset[str]) -> bool:
        """Return whether some predicate crosses between ``left`` and ``right``."""
        return any(p.connects(left, right) for p in self.predicates)

    def predicates_between(self, left: frozenset[str],
                           right: frozenset[str]) -> list[JoinPredicate]:
        """All predicates crossing between two disjoint table sets."""
        return [p for p in self.predicates if p.connects(left, right)]

    def predicates_within(self, subset: frozenset[str]
                          ) -> list[JoinPredicate]:
        """All predicates with both tables inside ``subset``."""
        return [p for p in self.predicates if p.tables <= subset]
