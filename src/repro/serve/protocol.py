"""Wire protocol of the serving gateway: JSON requests over HTTP.

The gateway speaks plain HTTP/1.1 with JSON bodies — no framework, no
client SDK required (``curl`` works).  This module defines everything
both ends agree on:

* the **query document** — a JSON encoding of a :class:`repro.query
  .Query` *including its catalog slice* (table statistics, columns,
  indexes), so a remote client can submit queries without sharing a
  process or a pickle format with the gateway.  The encoding carries
  exactly the statistics the optimizer reads; round-tripping a query
  preserves its signature (:func:`repro.service.signature
  .query_signature`), which is what shard routing keys on;
* the **optimize request** — tenant, query, scenario and the anytime
  controls (``precision``, ``budget``, ``deadline_seconds``,
  ``stream``), validated with field-precise errors (the gateway maps
  :class:`ProtocolError` to HTTP 400);
* **NDJSON framing** for streamed progress events — one JSON object per
  line, ``rung_completed`` lines carrying the rung's full plan-set
  document so a consumer can start serving plans mid-stream.

See ``docs/serving.md`` for the endpoint-by-endpoint contract.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from ..catalog import Catalog, Column, Index, Table
from ..core import encode_plan_set
from ..core.run import ProgressEvent
from ..errors import ReproError
from ..query import JoinPredicate, ParametricPredicate, Query

#: Streamed event kinds a consumer may see, in addition to the
#: :data:`repro.core.run.EVENT_KINDS` — ``done`` always terminates a
#: stream, ``error`` precedes ``done`` on failures.
STREAM_KINDS = ("done", "error")


class ProtocolError(ReproError):
    """A malformed or invalid request document (mapped to HTTP 400)."""


# ----------------------------------------------------------------------
# Query documents
# ----------------------------------------------------------------------

def query_to_doc(query: Query) -> dict:
    """Encode a query (with its catalog slice) as a JSON-ready dict.

    Only the tables the query touches are shipped; their statistics are
    copied verbatim, so the gateway-side reconstruction optimizes to the
    same plan sets (and hashes to the same signature) as the original.
    """
    catalog = query.catalog
    tables = []
    for name in query.tables:
        table = catalog.table(name)
        tables.append({
            "name": table.name,
            "cardinality": table.cardinality,
            "columns": [{"name": c.name,
                         "distinct_values": c.distinct_values,
                         "width_bytes": c.width_bytes}
                        for c in table.columns],
        })
    table_set = set(query.tables)
    indexes = [{"table": ix.table_name, "column": ix.column_name,
                "clustered": ix.clustered}
               for ix in catalog.indexes if ix.table_name in table_set]
    joins = [{"left_table": p.left_table, "left_column": p.left_column,
              "right_table": p.right_table,
              "right_column": p.right_column,
              "selectivity": p.selectivity}
             for p in query.join_predicates]
    params = [{"table": p.table, "column": p.column,
               "parameter_index": p.parameter_index}
              for p in query.parametric_predicates]
    return {"tables": tables, "joins": joins, "params": params,
            "indexes": indexes}


def query_from_doc(doc: dict) -> Query:
    """Rebuild a query from its wire document.

    Raises:
        ProtocolError: For structurally invalid documents (missing
            fields, bad statistics, inconsistent predicates) — the
            underlying model validation errors are surfaced verbatim.
    """
    if not isinstance(doc, dict):
        raise ProtocolError("query must be a JSON object")
    try:
        tables = [
            Table(name=t["name"], cardinality=int(t["cardinality"]),
                  columns=tuple(
                      Column(name=c["name"],
                             distinct_values=int(c["distinct_values"]),
                             width_bytes=int(c.get("width_bytes", 8)))
                      for c in t.get("columns", ())))
            for t in doc.get("tables", ())]
        if not tables:
            raise ProtocolError("query has no tables")
        indexes = [Index(table_name=ix["table"],
                         column_name=ix["column"],
                         clustered=bool(ix.get("clustered", False)))
                   for ix in doc.get("indexes", ())]
        catalog = Catalog.from_tables(tables, indexes)
        joins = tuple(
            JoinPredicate(left_table=j["left_table"],
                          left_column=j["left_column"],
                          right_table=j["right_table"],
                          right_column=j["right_column"],
                          selectivity=float(j["selectivity"]))
            for j in doc.get("joins", ()))
        params = tuple(
            ParametricPredicate(table=p["table"], column=p["column"],
                                parameter_index=int(p["parameter_index"]))
            for p in doc.get("params", ()))
        return Query(catalog=catalog,
                     tables=tuple(t.name for t in tables),
                     join_predicates=joins,
                     parametric_predicates=params)
    except ProtocolError:
        raise
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed query document: {exc}") from exc
    except (ValueError, ReproError) as exc:
        raise ProtocolError(f"invalid query: {exc}") from exc


# ----------------------------------------------------------------------
# Optimize requests
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizeRequest:
    """One parsed, validated ``POST /v1/optimize`` body.

    Attributes:
        tenant: Tenant identity the request is admitted (and rate
            limited, and counted) under.
        query: The reconstructed query.
        scenario: Scenario name, or ``None`` for the gateway default.
        precision: Target alpha for anytime calls (``None`` = exact).
        budget: Anytime budget document (``seconds``/``lps``/``steps``),
            already validated; ``None`` when absent.
        deadline_seconds: Per-request deadline; the gateway folds it
            into the cooperative budget, so expiry returns the
            best-so-far partial result with its guarantee instead of an
            error.
        stream: Stream progress events as NDJSON instead of returning
            one JSON response.
    """

    tenant: str
    query: Query
    scenario: str | None = None
    precision: float | None = None
    budget: dict | None = None
    deadline_seconds: float | None = None
    stream: bool = False


def _finite(value, key: str) -> float:
    """``float(value)``, refusing anything but a finite number.

    ``json.loads`` parses ``NaN`` and ``Infinity``, and ``float`` the
    strings ``"nan"`` and ``"inf"``; none of them is a precision or a
    time limit.
    """
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ProtocolError(f"{key} must be a number") from None
    if not math.isfinite(value):
        raise ProtocolError(f"{key} must be a finite number")
    return value


def _positive(doc: dict, key: str) -> float | None:
    value = doc.get(key)
    if value is None:
        return None
    value = _finite(value, key)
    if value <= 0:
        raise ProtocolError(f"{key} must be positive")
    return value


def parse_optimize_request(body: bytes | str) -> OptimizeRequest:
    """Parse and validate an optimize-request body.

    Raises:
        ProtocolError: With a client-actionable message for every way
            the body can be malformed (bad JSON, missing query, invalid
            statistics, non-numeric budget fields, ...).
    """
    try:
        doc = json.loads(body)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}") \
            from exc
    if not isinstance(doc, dict):
        raise ProtocolError("request body must be a JSON object")
    if "query" not in doc:
        raise ProtocolError("request is missing 'query'")
    tenant = doc.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("tenant must be a non-empty string")
    scenario = doc.get("scenario")
    if scenario is not None and not isinstance(scenario, str):
        raise ProtocolError("scenario must be a string")
    precision = doc.get("precision")
    if precision is not None:
        precision = _finite(precision, "precision")
        if precision < 0:
            raise ProtocolError("precision must be >= 0")
    budget = doc.get("budget")
    if budget is not None:
        if not isinstance(budget, dict):
            raise ProtocolError("budget must be an object")
        unknown = set(budget) - {"seconds", "lps", "steps"}
        if unknown:
            raise ProtocolError(
                f"unknown budget fields: {sorted(unknown)}")
        budget = {"seconds": _positive(budget, "seconds"),
                  "lps": budget.get("lps"),
                  "steps": budget.get("steps")}
        for key in ("lps", "steps"):
            if budget[key] is not None:
                try:
                    budget[key] = int(budget[key])
                except (TypeError, ValueError, OverflowError):
                    raise ProtocolError(
                        f"budget {key} must be an integer") from None
                if budget[key] < 0:
                    raise ProtocolError(f"budget {key} must be >= 0")
    return OptimizeRequest(
        tenant=tenant,
        query=query_from_doc(doc["query"]),
        scenario=scenario,
        precision=precision,
        budget=budget,
        deadline_seconds=_positive(doc, "deadline_seconds"),
        stream=bool(doc.get("stream", False)))


# ----------------------------------------------------------------------
# NDJSON framing
# ----------------------------------------------------------------------

def ndjson_line(doc: dict) -> bytes:
    """One NDJSON frame: compact JSON plus the line terminator."""
    return json.dumps(doc, separators=(",", ":")).encode() + b"\n"


def event_to_wire(event: ProgressEvent) -> dict:
    """Wire form of a progress event.

    ``rung_completed`` events carry the rung's full plan-set document
    under ``plan_set`` — the same JSON a non-streaming response returns
    — so consumers can serve plans from coarse rungs while tighter ones
    are still optimizing.
    """
    doc = event.as_dict()
    if event.plan_set is not None:
        doc["plan_set"] = encode_plan_set(event.plan_set)
    return doc
