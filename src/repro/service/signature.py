"""Canonical query signatures for warm-start caching.

The optimization service memoizes serialized Pareto plan sets per *query
signature*: a digest of everything the PWL-RRPA output depends on — the
join graph with its selectivities, per-table statistics, indexes,
parametric predicates, the scenario (cost-model family), the cost-model
resolution and the backend options.  Two queries with equal signatures
are guaranteed to produce identical Pareto plan sets (the optimizer is
deterministic), so a cached plan set can stand in for a fresh
optimization run.

For the persistent plan-set store (:mod:`repro.store`) the module also
derives three coarser descriptions of a query:

* the *family digest* (:func:`family_digest`) — everything structural
  (join-graph shape, column layout, indexes, parametric predicates,
  scenario, cost-model config) with the volatile statistics
  (cardinalities, distinct counts, join selectivities) stripped out.
  Recurring queries with drifting statistics share a family.
* the *statistics digest* (:func:`statistics_digest`) — a hash of only
  those volatile statistics, so stores can tell "same family, fresh
  stats" from true duplicates.
* the *feature vector* (:func:`signature_features`) — a fixed-order
  numeric summary of the statistics used for nearest-neighbor lookups
  within a family ("which cached plan set came from the most similar
  statistics?").
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields

from ..core import PWLRRPAOptions
from ..query import Query


def signature_document(query: Query, *, scenario: str = "cloud",
                       resolution: int = 2,
                       options: PWLRRPAOptions | None = None) -> dict:
    """Return the canonical JSON-ready description hashed by the signature.

    Args:
        query: The query to describe.
        scenario: Scenario (cost-model family) name; different scenarios
            produce different plan sets, so it is part of the key.
        resolution: PWL grid resolution of the cost model.
        options: Backend options (defaults hashed when omitted).
    """
    catalog = query.catalog
    tables = []
    for name in sorted(query.tables):
        table = catalog.table(name)
        tables.append({
            "name": name,
            "cardinality": table.cardinality,
            "columns": sorted(
                (c.name, c.distinct_values, c.width_bytes)
                for c in table.columns),
        })
    joins = sorted(
        (min(p.left_table, p.right_table), max(p.left_table, p.right_table),
         p.left_column, p.right_column, p.selectivity)
        for p in query.join_predicates)
    params = sorted((p.table, p.column, p.parameter_index)
                    for p in query.parametric_predicates)
    indexes = sorted((i.table_name, i.column_name) for i in catalog.indexes)
    return {
        "tables": tables,
        "joins": joins,
        "params": params,
        "indexes": indexes,
        "scenario": scenario,
        "resolution": resolution,
        "options": _options_document(options),
    }


#: Options removed from :class:`PWLRRPAOptions`, with the one value each
#: had left: their documents keep them, so the signatures that stored
#: plan sets are keyed by do not move.
_REMOVED_OPTIONS = {"vectorized_pruning": True}


def _options_document(options: PWLRRPAOptions | None) -> dict:
    """The options part of a signature document.

    Field by field: the options are a flat frozen dataclass of scalars,
    so this is the dict ``dataclasses.asdict`` builds, without the
    recursive deep copy that made up most of its cost.
    """
    options = options or PWLRRPAOptions()
    document = {f.name: getattr(options, f.name) for f in fields(options)}
    document.update(_REMOVED_OPTIONS)
    return document


def query_signature(query: Query, *, scenario: str = "cloud",
                    resolution: int = 2,
                    options: PWLRRPAOptions | None = None) -> str:
    """Hex digest identifying ``(query, scenario, cost-model config)``."""
    doc = signature_document(query, scenario=scenario,
                             resolution=resolution, options=options)
    return _digest(doc)


def _digest(doc: dict) -> str:
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# Family / statistics split (plan-set store lookups)
# ----------------------------------------------------------------------

def family_document(query: Query, *, scenario: str = "cloud",
                    resolution: int = 2,
                    options: PWLRRPAOptions | None = None) -> dict:
    """Structure-only signature document: statistics stripped.

    Keeps the join-graph *shape* (which tables join on which columns),
    the column layout, indexes, parametric predicates, scenario and
    cost-model configuration — and drops everything a statistics refresh
    changes: cardinalities, distinct counts and join selectivities.
    Recurring queries over a drifting database share one family.
    """
    catalog = query.catalog
    tables = []
    for name in sorted(query.tables):
        table = catalog.table(name)
        tables.append({
            "name": name,
            "columns": sorted((c.name, c.width_bytes)
                              for c in table.columns),
        })
    joins = sorted(
        (min(p.left_table, p.right_table), max(p.left_table, p.right_table),
         p.left_column, p.right_column)
        for p in query.join_predicates)
    params = sorted((p.table, p.column, p.parameter_index)
                    for p in query.parametric_predicates)
    indexes = sorted((i.table_name, i.column_name) for i in catalog.indexes)
    return {
        "tables": tables,
        "joins": joins,
        "params": params,
        "indexes": indexes,
        "scenario": scenario,
        "resolution": resolution,
        "options": _options_document(options),
    }


def family_digest(query: Query, *, scenario: str = "cloud",
                  resolution: int = 2,
                  options: PWLRRPAOptions | None = None) -> str:
    """Hex digest of :func:`family_document` (the store's family key)."""
    return _digest(family_document(query, scenario=scenario,
                                   resolution=resolution, options=options))


def statistics_digest(query: Query) -> str:
    """Hex digest of only the volatile statistics of a query.

    Two queries of the same family with equal statistics digests are the
    same query as far as the optimizer is concerned; a differing digest
    marks a near-miss candidate for warm-start seeding.
    """
    doc = {
        "cardinalities": sorted(
            (name, query.catalog.table(name).cardinality)
            for name in query.tables),
        "distinct": sorted(
            (name, c.name, c.distinct_values)
            for name in query.tables
            for c in query.catalog.table(name).columns),
        "selectivities": sorted(
            (min(p.left_table, p.right_table),
             max(p.left_table, p.right_table),
             p.left_column, p.right_column, p.selectivity)
            for p in query.join_predicates),
    }
    return _digest(doc)


def signature_features(query: Query) -> tuple[float, ...]:
    """Fixed-order numeric feature vector of a query's statistics.

    Dimensions (all deterministic given the query):

    0. number of tables
    1. number of parameters
    2. number of join predicates
    3. mean log10 base-table cardinality
    4. min log10 base-table cardinality
    5. max log10 base-table cardinality
    6. mean log10 column distinct count
    7. mean log10 join selectivity (0 when the query has no joins)
    8. number of catalog indexes on query tables

    Euclidean distance between vectors of the same family ranks cached
    plan sets by statistics similarity for nearest-neighbor seeding.
    """
    catalog = query.catalog
    cards = [math.log10(max(1, catalog.table(name).cardinality))
             for name in query.tables]
    distincts = [math.log10(max(1, c.distinct_values))
                 for name in query.tables
                 for c in catalog.table(name).columns]
    sels = [math.log10(max(1e-12, p.selectivity))
            for p in query.join_predicates]
    table_set = set(query.tables)
    num_indexes = sum(1 for ix in catalog.indexes
                      if ix.table_name in table_set)
    return (
        float(query.num_tables),
        float(query.num_params),
        float(len(query.join_predicates)),
        sum(cards) / len(cards) if cards else 0.0,
        min(cards) if cards else 0.0,
        max(cards) if cards else 0.0,
        sum(distincts) / len(distincts) if distincts else 0.0,
        sum(sels) / len(sels) if sels else 0.0,
        float(num_indexes),
    )
