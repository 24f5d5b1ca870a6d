"""Table definitions for the synthetic catalog."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CatalogError
from .column import Column


@dataclass(frozen=True)
class Table:
    """A base table with cardinality statistics.

    Attributes:
        name: Unique table name.
        cardinality: Number of rows.
        columns: The table's columns.
    """

    name: str
    cardinality: int
    columns: tuple[Column, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.cardinality < 1:
            raise ValueError(f"table {self.name!r} needs >= 1 row")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError(
                f"table {self.name!r} has duplicate column names")
        object.__setattr__(self, "columns", tuple(self.columns))

    def column(self, name: str) -> Column:
        """Look up a column by name.

        Raises:
            CatalogError: For unknown column names.
        """
        for col in self.columns:
            if col.name == name:
                return col
        raise CatalogError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        """Return whether the table has a column of that name."""
        return any(c.name == name for c in self.columns)
