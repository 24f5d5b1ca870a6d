"""Table-set and split enumeration for the dynamic program.

RRPA treats "table sets in ascending order of cardinality" and considers
"all possible splits of q into two non-empty subsets" (Algorithm 1).  The
search space is bushy plans; Cartesian product joins are postponed as much
as possible, the heuristic "commonly applied in state-of-the-art optimizers
such as the Postgres optimizer" (Section 7):

* when the query's join graph is connected, only *connected* table sets
  are materialized and only *connected* splits (at least one join predicate
  crossing the split) are enumerated;
* for disconnected join graphs, Cartesian products are re-admitted exactly
  where no connected alternative exists.
"""

from __future__ import annotations

from itertools import combinations
from collections.abc import Iterator

from ..query import Query


def subsets_in_size_order(query: Query) -> Iterator[frozenset[str]]:
    """Yield the table sets the DP must fill, smallest first.

    Connected-graph queries yield only connected subsets; otherwise all
    subsets are yielded (Cartesian products are then unavoidable).
    """
    graph = query.join_graph
    connected_only = graph.is_connected()
    tables = query.tables
    for size in range(2, len(tables) + 1):
        for combo in combinations(tables, size):
            subset = frozenset(combo)
            if connected_only and not graph.is_connected(subset):
                continue
            yield subset


def splits(query: Query, subset: frozenset[str]
           ) -> Iterator[tuple[frozenset[str], frozenset[str]]]:
    """Yield unordered splits ``(q1, q2)`` of ``subset`` for the last join.

    Each unordered split is yielded exactly once (the smaller side is
    canonically the one containing the lexicographically smallest table).
    Connected splits are preferred; Cartesian-product splits are yielded
    only when the subset admits no connected split at all.
    """
    members = sorted(subset)
    anchor = members[0]
    rest = members[1:]
    graph = query.join_graph
    # For connected join graphs, only proper csg-cmp pairs (both sides
    # internally connected) can have plans in the DP table; for
    # disconnected graphs every subset is materialized, so disconnected
    # sides are legitimate split operands.
    require_connected_sides = graph.is_connected()
    connected: list[tuple[frozenset[str], frozenset[str]]] = []
    cartesian: list[tuple[frozenset[str], frozenset[str]]] = []
    for size in range(0, len(rest)):
        for combo in combinations(rest, size):
            left = frozenset((anchor,) + combo)
            right = subset - left
            if not right:
                continue
            if require_connected_sides and not (
                    graph.is_connected(left)
                    and graph.is_connected(right)):
                continue
            target = (connected
                      if graph.split_is_connected(left, right)
                      else cartesian)
            target.append((left, right))
    pool = connected if connected else cartesian
    yield from pool


def count_considered_splits(query: Query) -> int:
    """Total number of splits the DP will enumerate (for sanity checks).

    Paper: Section 7's chain-versus-star comparison: the join pairs a DP
    that avoids Cartesian products considers (Ono and Lohman's counts,
    tests/test_enumeration_counts.py).
    """
    return sum(1 for subset in subsets_in_size_order(query)
               for __ in splits(query, subset))
