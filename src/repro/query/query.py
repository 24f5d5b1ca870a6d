"""The query model: table sets, join predicates, parametric predicates.

Section 2 of the paper represents a query as a set ``Q`` of tables to be
joined.  A :class:`Query` bundles that table set with its join predicates
(known selectivities) and its parametric predicates (selectivity unknown at
optimization time, one parameter each), plus cardinality computation for
arbitrary sub-sets of tables as exact polynomials in the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from ..catalog import Catalog
from ..cost.multilinear import ParamPolynomial
from ..errors import QueryError
from .joingraph import JoinGraph
from .predicates import JoinPredicate, ParametricPredicate


@dataclass
class Query:
    """A select-project-join query over a catalog.

    Args:
        catalog: Catalog providing table statistics.
        tables: Names of the tables to join (``Q`` in the paper).
        join_predicates: Equality join predicates with known selectivity.
        parametric_predicates: Per-table predicates whose selectivities are
            the optimization parameters.
    """

    catalog: Catalog
    tables: tuple[str, ...]
    join_predicates: tuple[JoinPredicate, ...] = ()
    parametric_predicates: tuple[ParametricPredicate, ...] = field(
        default_factory=tuple)

    def __post_init__(self) -> None:
        self.tables = tuple(self.tables)
        self.join_predicates = tuple(self.join_predicates)
        self.parametric_predicates = tuple(self.parametric_predicates)
        if len(set(self.tables)) != len(self.tables):
            raise QueryError("duplicate tables in query")
        for name in self.tables:
            self.catalog.table(name)  # raises CatalogError when missing
        table_set = set(self.tables)
        for pred in self.join_predicates:
            if not pred.tables <= table_set:
                raise QueryError(f"join predicate {pred!r} outside query")
        seen_params = set()
        seen_tables = set()
        for pred in self.parametric_predicates:
            if pred.table not in table_set:
                raise QueryError(f"parametric predicate on unknown table "
                                 f"{pred.table!r}")
            if pred.parameter_index in seen_params:
                raise QueryError(
                    f"parameter {pred.parameter_index} used twice")
            if pred.table in seen_tables:
                raise QueryError(
                    f"table {pred.table!r} has two parametric predicates")
            seen_params.add(pred.parameter_index)
            seen_tables.add(pred.table)
        expected = set(range(len(self.parametric_predicates)))
        if seen_params and seen_params != expected:
            raise QueryError(
                f"parameter indices must be 0..k-1, got {sorted(seen_params)}")
        self._graph = JoinGraph(self.tables, self.join_predicates)
        self._param_of_table = {p.table: p.parameter_index
                                for p in self.parametric_predicates}
        self._cardinality_cache: dict[frozenset[str], ParamPolynomial] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def num_tables(self) -> int:
        """Number of tables (``|Q|``)."""
        return len(self.tables)

    @property
    def num_params(self) -> int:
        """Number of optimization parameters (``nX``)."""
        return len(self.parametric_predicates)

    @property
    def table_set(self) -> frozenset[str]:
        """The full table set as a frozenset."""
        return frozenset(self.tables)

    @property
    def join_graph(self) -> JoinGraph:
        """The join graph of the query."""
        return self._graph

    def parameter_of(self, table: str) -> int | None:
        """Parameter index of a table's parametric predicate, or ``None``."""
        return self._param_of_table.get(table)

    def parametric_predicate_of(self, table: str) -> ParametricPredicate | None:
        """The parametric predicate attached to ``table``, if any."""
        for pred in self.parametric_predicates:
            if pred.table == table:
                return pred
        return None

    # ------------------------------------------------------------------
    # Cardinality estimation
    # ------------------------------------------------------------------

    def base_cardinality(self, table: str) -> ParamPolynomial:
        """Rows of one base table after its optional parametric filter."""
        card = float(self.catalog.table(table).cardinality)
        poly = ParamPolynomial.constant(self.num_params, card)
        param = self.parameter_of(table)
        if param is not None:
            poly = poly * ParamPolynomial.variable(self.num_params, param)
        return poly

    def cardinality(self, subset: frozenset[str]) -> ParamPolynomial:
        """Result cardinality of joining ``subset`` (exact polynomial).

        The standard uniformity model: product of filtered base-table
        cardinalities times the selectivities of all join predicates whose
        tables both lie in ``subset``.  Because each parameter belongs to
        exactly one base table, the result is multilinear in the
        parameters.  Results are memoized per subset.
        """
        subset = frozenset(subset)
        if not subset <= self.table_set:
            raise QueryError(f"{sorted(subset)} is not a sub-set of the query")
        if not subset:
            raise QueryError("cardinality of the empty table set")
        cached = self._cardinality_cache.get(subset)
        if cached is not None:
            return cached
        poly = reduce(lambda acc, t: acc * self.base_cardinality(t),
                      sorted(subset),
                      ParamPolynomial.constant(self.num_params, 1.0))
        for pred in self._graph.predicates_within(subset):
            poly = poly * pred.selectivity
        self._cardinality_cache[subset] = poly
        return poly

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Query(tables={len(self.tables)}, "
                f"joins={len(self.join_predicates)}, "
                f"params={self.num_params})")
