"""Unit tests for the catalog and query model."""

from __future__ import annotations

import pytest

from repro.catalog import (Catalog, Column, Index, Table,
                           base_cardinality_polynomial, join_selectivity)
from repro.errors import CatalogError, QueryError
from repro.query import (JoinGraph, JoinPredicate, ParametricPredicate,
                         Query, QueryGenerator)


def small_catalog() -> Catalog:
    t0 = Table("t0", 1000, (Column("a", 100), Column("p", 50)))
    t1 = Table("t1", 5000, (Column("a", 200),))
    t2 = Table("t2", 200, (Column("b", 20),))
    return Catalog.from_tables(
        [t0, t1, t2], [Index(table_name="t0", column_name="p")])


def small_query() -> Query:
    catalog = small_catalog()
    joins = (JoinPredicate("t0", "a", "t1", "a", selectivity=1 / 200),
             JoinPredicate("t1", "a", "t2", "b", selectivity=1 / 200))
    params = (ParametricPredicate(table="t0", column="p",
                                  parameter_index=0),)
    return Query(catalog=catalog, tables=("t0", "t1", "t2"),
                 join_predicates=joins, parametric_predicates=params)


class TestCatalog:
    def test_lookup(self):
        cat = small_catalog()
        assert cat.table("t0").cardinality == 1000
        assert cat.table("t0").column("a").distinct_values == 100

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            small_catalog().table("nope")

    def test_unknown_column(self):
        with pytest.raises(CatalogError):
            small_catalog().table("t0").column("nope")

    def test_duplicate_table_rejected(self):
        cat = small_catalog()
        with pytest.raises(CatalogError):
            cat.add_table(Table("t0", 10))

    def test_index_validation(self):
        cat = small_catalog()
        with pytest.raises(CatalogError):
            cat.add_index(Index(table_name="t0", column_name="zz"))
        assert cat.has_index("t0", "p")
        assert not cat.has_index("t1", "a")

    def test_column_validation(self):
        with pytest.raises(ValueError):
            Column("c", 0)
        with pytest.raises(ValueError):
            Table("t", 0)
        with pytest.raises(CatalogError):
            Table("t", 5, (Column("c", 1), Column("c", 2)))

    def test_join_selectivity(self):
        cat = small_catalog()
        sel = join_selectivity(cat, "t0", "a", "t1", "a")
        assert sel == pytest.approx(1 / 200)

    def test_base_cardinality_polynomial(self):
        cat = small_catalog()
        const = base_cardinality_polynomial(cat, "t1", None, 1)
        assert const.evaluate([0.7]) == pytest.approx(5000)
        param = base_cardinality_polynomial(cat, "t0", 0, 1)
        assert param.evaluate([0.25]) == pytest.approx(250)


class TestQuery:
    def test_cardinality_polynomial(self):
        q = small_query()
        # Full join: 1000*x * 5000 * 200 * (1/200) * (1/200)
        card = q.cardinality(frozenset(("t0", "t1", "t2")))
        assert card.evaluate([1.0]) == pytest.approx(
            1000 * 5000 * 200 / 200 / 200)
        assert card.evaluate([0.5]) == pytest.approx(
            0.5 * 1000 * 5000 * 200 / 200 / 200)

    def test_cardinality_subset_excludes_cross_predicates(self):
        q = small_query()
        card = q.cardinality(frozenset(("t0", "t2")))  # no joining pred
        assert card.evaluate([1.0]) == pytest.approx(1000 * 200)

    def test_cardinality_cache(self):
        q = small_query()
        a = q.cardinality(frozenset(("t0", "t1")))
        b = q.cardinality(frozenset(("t0", "t1")))
        assert a is b

    def test_invalid_subset(self):
        q = small_query()
        with pytest.raises(QueryError):
            q.cardinality(frozenset(("zz",)))
        with pytest.raises(QueryError):
            q.cardinality(frozenset())

    def test_parameter_lookup(self):
        q = small_query()
        assert q.parameter_of("t0") == 0
        assert q.parameter_of("t1") is None
        assert q.parametric_predicate_of("t0").column == "p"

    def test_validation_errors(self):
        cat = small_catalog()
        with pytest.raises(QueryError):
            Query(catalog=cat, tables=("t0", "t0"))
        with pytest.raises(QueryError):
            Query(catalog=cat, tables=("t0",),
                  join_predicates=(JoinPredicate("t0", "a", "t1", "a",
                                                 0.5),))
        with pytest.raises(QueryError):
            Query(catalog=cat, tables=("t0", "t1"),
                  parametric_predicates=(
                      ParametricPredicate("t0", "p", 0),
                      ParametricPredicate("t1", "a", 0)))
        with pytest.raises(QueryError):
            Query(catalog=cat, tables=("t0",),
                  parametric_predicates=(
                      ParametricPredicate("t0", "p", 3),))

    def test_predicate_validation(self):
        with pytest.raises(ValueError):
            JoinPredicate("a", "x", "a", "x", 0.5)  # self join
        with pytest.raises(ValueError):
            JoinPredicate("a", "x", "b", "y", 0.0)  # zero selectivity
        with pytest.raises(ValueError):
            ParametricPredicate("a", "x", -1)


class TestJoinGraph:
    def test_chain_connectivity(self):
        q = small_query()
        g = q.join_graph
        assert g.is_connected()
        assert g.is_connected(frozenset(("t0", "t1")))
        assert not g.is_connected(frozenset(("t0", "t2")))

    def test_split_connectivity(self):
        g = small_query().join_graph
        assert g.split_is_connected(frozenset(("t0",)),
                                    frozenset(("t1", "t2")))
        assert not g.split_is_connected(frozenset(("t0",)),
                                        frozenset(("t2",)))

    def test_connected_subsets_chain(self):
        g = small_query().join_graph
        subsets = g.connected_subsets()
        # Chain t0-t1-t2: singletons (3) + {t0,t1},{t1,t2} + full set.
        assert len(subsets) == 6

    def test_degree_histogram_star(self):
        gen = QueryGenerator(seed=2)
        q = gen.generate(num_tables=5, shape="star", num_params=1)
        g = q.join_graph
        degrees = sorted(len(g.neighbors(t)) for t in q.tables)
        assert degrees == [1, 1, 1, 1, 4]  # four spokes, one hub

    def test_predicate_outside_graph_rejected(self):
        with pytest.raises(ValueError):
            JoinGraph(("a", "b"),
                      [JoinPredicate("a", "x", "c", "y", 0.5)])


class TestQueryGenerator:
    def test_deterministic(self):
        q1 = QueryGenerator(seed=42).generate(4, "chain", 1)
        q2 = QueryGenerator(seed=42).generate(4, "chain", 1)
        assert [q1.catalog.table(t).cardinality for t in q1.tables] == \
            [q2.catalog.table(t).cardinality for t in q2.tables]
        assert q1.join_predicates == q2.join_predicates

    @pytest.mark.parametrize("shape,expected_edges", [
        ("chain", 4), ("star", 4), ("cycle", 5), ("clique", 10)])
    def test_shapes(self, shape, expected_edges):
        q = QueryGenerator(seed=1).generate(5, shape, 1)
        assert len(q.join_predicates) == expected_edges
        assert q.join_graph.is_connected()

    def test_ten_percent_rule(self):
        q = QueryGenerator(seed=3).generate(6, "chain", 2)
        for table_name in q.tables:
            table = q.catalog.table(table_name)
            for col in table.columns:
                cap = max(1, -(-table.cardinality // 10))  # ceil
                assert col.distinct_values <= cap

    def test_param_tables_have_indexes(self):
        q = QueryGenerator(seed=4).generate(5, "star", 2)
        assert q.num_params == 2
        for pred in q.parametric_predicates:
            assert q.catalog.has_index(pred.table, pred.column)

    def test_invalid_args(self):
        gen = QueryGenerator()
        with pytest.raises(ValueError):
            gen.generate(0)
        with pytest.raises(ValueError):
            gen.generate(2, num_params=3)
        with pytest.raises(ValueError):
            gen.generate(3, shape="ring")

    def test_single_table_query(self):
        q = QueryGenerator(seed=5).generate(1, "chain", 1)
        assert q.num_tables == 1
        assert q.join_predicates == ()
