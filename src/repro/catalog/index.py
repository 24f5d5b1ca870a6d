"""Index definitions for the synthetic catalog.

The paper's experimental setup states "Indices are available for each
column with a predicate", which is what makes index seeks compete with full
scans and forces the optimizer to keep plans for both cases (low vs. high
selectivity).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Index:
    """A secondary index on one column.

    Attributes:
        table_name: Table the index belongs to.
        column_name: Indexed column.
        clustered: Clustered indexes avoid per-match random I/O.
    """

    table_name: str
    column_name: str
    clustered: bool = False
