"""Column definitions for the synthetic catalog."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Column:
    """A table column.

    Attributes:
        name: Column name, unique within its table.
        distinct_values: Number of distinct values.  The paper's workload
            generator assumes "unique values occupy up to 10% of a table
            column"; the query generator enforces that bound.
        width_bytes: Storage width used by scan/shuffle cost formulas.
    """

    name: str
    distinct_values: int
    width_bytes: int = 8

    def __post_init__(self) -> None:
        if self.distinct_values < 1:
            raise ValueError(
                f"column {self.name!r} needs >= 1 distinct value")
        if self.width_bytes < 1:
            raise ValueError(f"column {self.name!r} has invalid width")
