"""Synthetic data generation for plan execution.

The paper's evaluation is purely cost-model-driven (a simulated cluster).
To let downstream users *execute* the plans MPQ produces, this module
materializes the synthetic catalog as column arrays whose statistics match
the catalog exactly:

* each table gets ``cardinality`` rows;
* each column draws values uniformly from ``0 .. distinct_values - 1``
  (matching the uniformity assumption of the selectivity model);
* generation is deterministic per (seed, table).

Parametric predicates are instantiated by choosing literals whose actual
selectivity is as close as possible to a requested parameter value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..catalog import Catalog
from ..errors import CatalogError


@dataclass
class MaterializedTable:
    """A generated table: named integer column arrays.

    Attributes:
        name: Table name.
        columns: Mapping column name -> value array (all equal length).
    """

    name: str
    columns: dict[str, np.ndarray]

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        if not self.columns:
            return 0
        return int(next(iter(self.columns.values())).shape[0])

    def column(self, name: str) -> np.ndarray:
        """Column array by name.

        Raises:
            CatalogError: For unknown columns.
        """
        try:
            return self.columns[name]
        except KeyError:
            raise CatalogError(
                f"materialized table {self.name!r} has no column "
                f"{name!r}") from None


@dataclass
class Database:
    """A materialized synthetic database.

    Attributes:
        catalog: The catalog the data was generated from.
        tables: Mapping table name -> materialized data.
    """

    catalog: Catalog
    tables: dict[str, MaterializedTable] = field(default_factory=dict)

    def table(self, name: str) -> MaterializedTable:
        """Materialized table by name."""
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"no materialized table {name!r}") from None


def generate_database(catalog: Catalog, seed: int = 0) -> Database:
    """Materialize every table of a catalog.

    Args:
        catalog: Source catalog with cardinalities and distinct counts.
        seed: Base RNG seed; data is deterministic per (seed, table name).

    Returns:
        A :class:`Database` with one array per column.
    """
    db = Database(catalog=catalog)
    for name, table in catalog.tables.items():
        rng = np.random.default_rng(
            abs(hash((seed, name))) % (2 ** 32))
        columns = {}
        for col in table.columns:
            columns[col.name] = rng.integers(
                0, col.distinct_values, size=table.cardinality,
                dtype=np.int64)
        db.tables[name] = MaterializedTable(name=name, columns=columns)
    return db


def threshold_for_selectivity(db: Database, table: str, column: str,
                              selectivity: float) -> int:
    """Pick a threshold so that ``column < threshold`` matches a target
    fraction of rows.

    Range predicates reach any selectivity in ``[0, 1]``, which is how the
    executor instantiates the paper's *parameterized* predicates at a
    requested parameter value.
    """
    values = db.table(table).column(column)
    if values.shape[0] == 0:
        return 0
    target_rank = selectivity * values.shape[0]
    sorted_values = np.sort(values)
    index = int(np.clip(round(target_rank), 0, values.shape[0] - 1))
    if selectivity >= 1.0:
        return int(sorted_values[-1]) + 1
    return int(sorted_values[index])
