"""Workload definitions for the experimental evaluation (Section 7).

The paper's Figure 12 sweeps the number of tables (2–12) for chain and
star queries with 1 and 2 parameters, 25 random queries per point, and
reports the median of optimization time, #created plans and #solved LPs.

Pure-Python LP solving is orders of magnitude slower than the paper's
Java + Gurobi setup, so the default sweep is scaled down (documented in
EXPERIMENTS.md); the shapes of all curves are preserved.  Two profiles are
provided: ``QUICK`` (used by the pytest-benchmark suite) and ``FULL``
(closer to the paper's ranges; run it via ``examples/figure12.py``).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from ..catalog import Catalog, Column, Index, Table
from ..query import JoinPredicate, Query, QueryGenerator


@dataclass(frozen=True)
class SweepPoint:
    """One x-axis point of a Figure 12 panel.

    Attributes:
        num_tables: Number of joined tables.
        shape: Join graph shape (``"chain"`` or ``"star"``).
        num_params: Number of selectivity parameters (1 or 2).
        resolution: PWL grid resolution used by the cost model.
    """

    num_tables: int
    shape: str
    num_params: int
    resolution: int = 2


@dataclass(frozen=True)
class SweepProfile:
    """A full sweep configuration.

    Attributes:
        name: Profile label.
        table_counts_1p: Table counts swept with one parameter.
        table_counts_2p: Table counts swept with two parameters.
        queries_per_point: Random queries (seeds) per sweep point; the
            paper uses 25, the scaled profiles use fewer.
        resolution_1p / resolution_2p: PWL grid resolutions.
    """

    name: str
    table_counts_1p: tuple[int, ...]
    table_counts_2p: tuple[int, ...]
    queries_per_point: int
    resolution_1p: int = 2
    resolution_2p: int = 1


#: Small profile used by the pytest-benchmark suite (minutes, not hours).
QUICK = SweepProfile(
    name="quick",
    table_counts_1p=(2, 3, 4, 5),
    table_counts_2p=(2, 3, 4),
    queries_per_point=3,
)

#: Larger profile approaching the paper's ranges (tens of minutes).
FULL = SweepProfile(
    name="full",
    table_counts_1p=(2, 3, 4, 5, 6, 7, 8),
    table_counts_2p=(2, 3, 4, 5, 6),
    queries_per_point=5,
)


def sweep_points(profile: SweepProfile, shape: str
                 ) -> list[SweepPoint]:
    """Expand a profile into the sweep points for one join-graph shape.

    Paper: Section 7, the points of the Figure 12 sweep;
    examples/figure12.py and the nightly benchmarks run them.
    """
    points = [SweepPoint(num_tables=n, shape=shape, num_params=1,
                         resolution=profile.resolution_1p)
              for n in profile.table_counts_1p]
    points += [SweepPoint(num_tables=n, shape=shape, num_params=2,
                          resolution=profile.resolution_2p)
               for n in profile.table_counts_2p]
    return points


def queries_for_point(point: SweepPoint, count: int,
                      base_seed: int = 0) -> list[Query]:
    """Generate the random queries evaluated at one sweep point.

    Seeds are derived from the point via a *stable* digest (CRC32) so
    repeated runs — across processes, Python versions and machines —
    measure identical workloads.  This is what makes the deterministic
    counter metrics (#LPs, #plans) comparable against the committed CI
    perf baseline; the built-in ``hash`` would vary per process unless
    ``PYTHONHASHSEED`` were pinned.
    """
    queries = []
    for i in range(count):
        tag = (f"{point.num_tables}:{point.shape}:{point.num_params}:"
               f"{base_seed + i}")
        seed = zlib.crc32(tag.encode("ascii")) & 0x7FFFFFFF
        generator = QueryGenerator(seed=seed)
        queries.append(generator.generate(
            num_tables=point.num_tables, shape=point.shape,
            num_params=point.num_params))
    return queries


def stable_seed(tag: str) -> int:
    """CRC32-derived seed for a workload tag (see queries_for_point)."""
    return zlib.crc32(tag.encode("ascii")) & 0x7FFFFFFF


def drift_statistics(query: Query, seed: int,
                     magnitude: float = 0.15) -> Query:
    """The same query structure with perturbed statistics.

    Models a *recurring* query whose underlying data has changed
    between appearances: tables, join graph, parametric predicates and
    indexes — everything the structural family digest hashes — stay
    fixed, while cardinalities, distinct counts and join selectivities
    are scaled by up to ``magnitude``.  The result is a near miss for
    the plan-set store: a different exact signature in the same family,
    eligible for similar-query warm-start seeding.
    """
    rng = random.Random(seed)
    tables = []
    for name in query.catalog.table_names():
        table = query.catalog.table(name)
        factor = 1.0 + rng.uniform(-magnitude, magnitude)
        cardinality = max(1, int(table.cardinality * factor))
        columns = tuple(
            Column(column.name,
                   max(1, min(cardinality,
                              int(column.distinct_values * factor))),
                   column.width_bytes)
            for column in table.columns)
        tables.append(Table(name, cardinality, columns))
    catalog = Catalog.from_tables(
        tables, [Index(index.table_name, index.column_name)
                 for index in query.catalog.indexes])
    joins = tuple(
        JoinPredicate(p.left_table, p.left_column, p.right_table,
                      p.right_column,
                      min(1.0, p.selectivity
                          * (1.0 + rng.uniform(-magnitude, magnitude))))
        for p in query.join_predicates)
    return Query(catalog, query.tables, joins,
                 query.parametric_predicates)
