"""Random query generation following Steinbrunn et al.

Section 7 of the paper: "We evaluate the performance of PWL-RRPA on
randomly generated queries, using the generation method proposed by
Steinbrunn [29] ... to choose table cardinalities and join predicates; we
assume that unique values occupy up to 10% of a table column.  We
separately evaluate the performance for star queries and for chain queries
as the structure of the join graph is known to have significant impact on
optimizer performance."

This module generates catalogs and queries accordingly:

* table cardinalities drawn log-uniformly from ``[min_card, max_card]``;
* distinct values of join/predicate columns drawn uniformly from
  ``[1, ceil(0.1 * cardinality)]`` (the 10% rule);
* join predicates arranged as a chain, star, cycle or clique;
* the first ``num_params`` tables (chosen at random) carry a parametric
  equality predicate each, with an index on the filtered column ("Indices
  are available for each column with a predicate").
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..catalog import Catalog, Column, Index, Table
from .predicates import JoinPredicate, ParametricPredicate
from .query import Query

#: Join graph shapes supported by the generator.
SHAPES = ("chain", "star", "cycle", "clique")


@dataclass(frozen=True)
class GeneratorConfig:
    """Tunables of the random query generator.

    Attributes:
        min_cardinality / max_cardinality: Log-uniform table size range.
        unique_fraction: Upper bound on distinct values as a fraction of
            the table cardinality (the paper's 10% rule).
    """

    min_cardinality: int = 100
    max_cardinality: int = 100_000
    unique_fraction: float = 0.1


class QueryGenerator:
    """Deterministic random generator for catalogs and queries.

    Args:
        seed: Seed for the internal :mod:`random` instance; runs with equal
            seeds produce identical workloads.
        config: Size tunables (defaults follow the paper).
    """

    def __init__(self, seed: int = 0,
                 config: GeneratorConfig | None = None) -> None:
        self._rng = random.Random(seed)
        self.config = config or GeneratorConfig()

    # ------------------------------------------------------------------
    # Low-level draws
    # ------------------------------------------------------------------

    def _table_cardinality(self) -> int:
        lo = math.log(self.config.min_cardinality)
        hi = math.log(self.config.max_cardinality)
        return int(round(math.exp(self._rng.uniform(lo, hi))))

    def _distinct_values(self, cardinality: int) -> int:
        cap = max(1, math.ceil(self.config.unique_fraction * cardinality))
        return self._rng.randint(1, cap)

    @staticmethod
    def _edges(shape: str, names: list[str]) -> list[tuple[str, str]]:
        n = len(names)
        if shape == "chain":
            return [(names[i], names[i + 1]) for i in range(n - 1)]
        if shape == "star":
            return [(names[0], names[i]) for i in range(1, n)]
        if shape == "cycle":
            edges = [(names[i], names[i + 1]) for i in range(n - 1)]
            if n > 2:
                edges.append((names[-1], names[0]))
            return edges
        if shape == "clique":
            return [(names[i], names[j])
                    for i in range(n) for j in range(i + 1, n)]
        raise ValueError(f"unknown join graph shape {shape!r}; "
                         f"expected one of {SHAPES}")

    # ------------------------------------------------------------------
    # Query generation
    # ------------------------------------------------------------------

    def generate(self, num_tables: int, shape: str = "chain",
                 num_params: int = 1) -> Query:
        """Generate a random query with its own catalog.

        Args:
            num_tables: Number of tables to join (>= 1).
            shape: Join graph shape (one of :data:`SHAPES`).
            num_params: Number of parameterized predicates; must not
                exceed ``num_tables``.

        Returns:
            A :class:`repro.query.Query` whose catalog contains exactly the
            generated tables and indexes.
        """
        if num_tables < 1:
            raise ValueError("queries need at least one table")
        if num_params > num_tables:
            raise ValueError("cannot have more parameters than tables")
        names = [f"t{i}" for i in range(num_tables)]
        edges = self._edges(shape, names) if num_tables > 1 else []

        cardinalities = {name: self._table_cardinality() for name in names}

        # One join column per incident edge, one predicate column per
        # parameterized table.
        columns: dict[str, list[Column]] = {name: [] for name in names}
        join_predicates = []
        for k, (left, right) in enumerate(edges):
            left_col = f"j{k}"
            right_col = f"j{k}"
            left_distinct = self._distinct_values(cardinalities[left])
            right_distinct = self._distinct_values(cardinalities[right])
            columns[left].append(Column(left_col, left_distinct))
            columns[right].append(Column(right_col, right_distinct))
            selectivity = 1.0 / max(left_distinct, right_distinct)
            join_predicates.append(JoinPredicate(
                left_table=left, left_column=left_col,
                right_table=right, right_column=right_col,
                selectivity=selectivity))

        param_tables = self._rng.sample(names, num_params)
        parametric = []
        indexes = []
        for param_index, table in enumerate(sorted(param_tables)):
            col_name = "p"
            columns[table].append(
                Column(col_name,
                       self._distinct_values(cardinalities[table])))
            parametric.append(ParametricPredicate(
                table=table, column=col_name, parameter_index=param_index))
            indexes.append(Index(table_name=table, column_name=col_name))

        tables = [Table(name=name, cardinality=cardinalities[name],
                        columns=tuple(columns[name]))
                  for name in names]
        catalog = Catalog.from_tables(tables, indexes)
        return Query(catalog=catalog, tables=tuple(names),
                     join_predicates=tuple(join_predicates),
                     parametric_predicates=tuple(parametric))
