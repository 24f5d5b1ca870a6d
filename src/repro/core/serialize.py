"""Persisting Pareto plan sets.

The whole point of MPQ (Figure 2) is that optimization happens *before*
run time: for embedded SQL (Scenario 2) the plan set must survive between
the preprocessing step and the application's run time.  This module
serializes an :class:`OptimizationResult`'s Pareto plan set — plans, PWL
cost functions and relevance-region cutouts — to a JSON document and
reloads it into a :class:`StoredPlanSet` that supports the same run-time
selection operations without re-optimizing (and without the optimizer's
dependencies: reloading needs no LP solver).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cost import MultiObjectivePWL, PiecewiseLinearFunction
from ..cost.linear import LinearPiece
from ..errors import DimensionMismatchError, ReproError
from ..geometry import GEOMETRY_EPS, ConvexPolytope
from ..plans import JoinOperator, JoinPlan, Plan, ScanOperator, ScanPlan
from .rrpa import OptimizationResult, pareto_filter

FORMAT_VERSION = 1


class SerializationError(ReproError):
    """Raised for malformed stored plan sets."""


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

def _encode_plan(plan: Plan) -> dict:
    if isinstance(plan, ScanPlan):
        op = plan.operator
        return {"kind": "scan", "table": plan.table,
                "operator": {"name": op.name, "uses_index": op.uses_index,
                             "sampling_rate": op.sampling_rate}}
    if isinstance(plan, JoinPlan):
        return {"kind": "join",
                "operator": {"name": plan.operator.name,
                             "parallel": plan.operator.parallel},
                "left": _encode_plan(plan.left),
                "right": _encode_plan(plan.right)}
    raise SerializationError(f"cannot encode plan node {plan!r}")


def _encode_polytope(poly: ConvexPolytope) -> dict:
    return {"dim": poly.dim,
            "constraints": [{"a": list(a), "b": b}
                            for a, b in zip(poly._lhs, poly._rhs)]}


def _encode_pwl(f: PiecewiseLinearFunction) -> dict:
    return {"dim": f.dim,
            "pieces": [{"region": _encode_polytope(p.region),
                        "w": np.asarray(p.w).tolist(), "b": p.b}
                       for p in f.pieces]}


def _encode_cost(cost: MultiObjectivePWL) -> dict:
    """Components in :attr:`MultiObjectivePWL.metric_names` order, so a
    plan set has one byte form whatever key order it was decoded from."""
    return {name: _encode_pwl(cost.components[name])
            for name in cost.metric_names}


def _encode_region(region) -> dict:
    return {"space": _encode_polytope(region.space),
            "cutouts": [_encode_polytope(c) for c in region.cutouts]}


def decode_plan(doc: dict) -> Plan:
    """A plan from its document: the ``plan`` of an encoded entry.

    Raises:
        SerializationError: For unknown plan node kinds.
    """
    return _decode_plan(doc)


def encode_result(result: OptimizationResult) -> dict:
    """Encode a result's final Pareto plan set as a JSON-ready dict.

    The document records the run's approximation tag (``alpha`` /
    ``guarantee``, both trivial for exact runs) so anytime plan sets
    stay distinguishable from exact ones after a round trip — the
    warm-start cache keys acceptance on it.
    """
    entries = []
    for entry in result.entries:
        entries.append({
            "plan": _encode_plan(entry.plan),
            "cost": _encode_cost(entry.cost),
            "region": _encode_region(entry.region),
        })
    return {"version": FORMAT_VERSION,
            "num_params": max(1, result.query.num_params),
            "alpha": float(result.achieved_alpha),
            "guarantee": float(result.guarantee),
            "entries": entries}


def encode_plan_set(plan_set: StoredPlanSet) -> dict:
    """Encode a reloaded :class:`StoredPlanSet` back into a document.

    Not an exact inverse of :func:`decode_plan_set`: decoding
    re-normalizes every polytope row, and a row whose norm is not
    exactly 1.0 can move in its last bit.  Plans, PWL weights and
    offsets, the approximation tag and the number of rows round-trip
    value for value; 1-parameter rows (``±1``) do too, but on a
    2-parameter plan set one round trip changed 504 of 5,294 rows and a
    second changed 2 more.  Serving tiers therefore hand clients
    ``encode_plan_set(decode_plan_set(doc))``, the canonical form
    plan-set digests are taken of, rather than the optimizer's document.
    """
    entries = []
    for entry in plan_set.entries:
        entries.append({
            "plan": _encode_plan(entry.plan),
            "cost": _encode_cost(entry.cost),
            "region": {"space": _encode_polytope(entry.space),
                       "cutouts": [_encode_polytope(c)
                                   for c in entry.cutouts]},
        })
    return {"version": FORMAT_VERSION,
            "num_params": plan_set.num_params,
            "alpha": float(plan_set.alpha),
            "guarantee": float(plan_set.guarantee),
            "entries": entries}


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------

def _decode_plan(doc: dict) -> Plan:
    kind = doc.get("kind")
    if kind == "scan":
        op = doc["operator"]
        return ScanPlan(table=doc["table"],
                        operator=ScanOperator(
                            name=op["name"],
                            uses_index=op.get("uses_index", False),
                            sampling_rate=op.get("sampling_rate", 1.0)))
    if kind == "join":
        op = doc["operator"]
        return JoinPlan(left=_decode_plan(doc["left"]),
                        right=_decode_plan(doc["right"]),
                        operator=JoinOperator(
                            name=op["name"],
                            parallel=op.get("parallel", False)))
    raise SerializationError(f"unknown plan kind {kind!r}")


def _decode_polytope(doc: dict) -> ConvexPolytope:
    dim, rows = doc["dim"], doc["constraints"]
    coefficients = [row["a"] for row in rows]
    if any(len(a) != dim for a in coefficients):
        # Stored input from outside: older encoders wrote these rows.
        coefficients = [_fit_row(a, dim) for a in coefficients]
    return ConvexPolytope.from_arrays(
        np.reshape(coefficients, (len(rows), dim)),
        [row["b"] for row in rows])


def _fit_row(a: list, dim: int) -> list:
    """A stored row's coefficients at width ``dim``.

    A zero-coefficient row of another width (trivially satisfied or
    trivially infeasible whatever the dimension) becomes the zero row
    of width ``dim``.

    Raises:
        DimensionMismatchError: For any other row whose width is not
            ``dim``.

    Fault path: a stored document from an older encoder (an upgrade)
    reaches it.
    """
    if len(a) == dim:
        return a
    if all(abs(coef) <= GEOMETRY_EPS for coef in a):
        return [0.0] * dim
    raise DimensionMismatchError(
        f"constraint dim {len(a)} != polytope dim {dim}")


def _decode_pwl(doc: dict) -> PiecewiseLinearFunction:
    pieces = [LinearPiece(region=_decode_polytope(p["region"]),
                          w=np.asarray(p["w"], dtype=float), b=p["b"])
              for p in doc["pieces"]]
    return PiecewiseLinearFunction(doc["dim"], pieces)


@dataclass(frozen=True)
class StoredEntry:
    """One reloaded plan with its cost function and relevance cutouts.

    Immutable, like the :class:`StoredPlanSet` that holds it.
    """

    plan: Plan
    cost: MultiObjectivePWL
    space: ConvexPolytope
    cutouts: tuple[ConvexPolytope, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cutouts", tuple(self.cutouts))

    def relevant_at(self, x) -> bool:
        """Relevance-region membership (space minus cutouts)."""
        if not self.space.contains_point(x):
            return False
        return not any(c.contains_point(x) for c in self.cutouts)


@dataclass(frozen=True, eq=False)
class StoredPlanSet:
    """A reloaded Pareto plan set supporting run-time selection.

    Mirrors the selection operations of
    :class:`repro.core.selection.PlanSelector` without requiring the
    original optimizer state.  Immutable: run-time selection only reads
    it, so one decoded instance can answer every request for its plan
    set, from any thread (the warm-start cache relies on this).
    """

    num_params: int
    entries: tuple[StoredEntry, ...]
    #: Approximation factor the set was pruned with (0 = exact).
    alpha: float = 0.0
    #: End-to-end multiplicative cost bound (1 = exact).
    guarantee: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    def plans_for(self, x) -> list[StoredEntry]:
        """Entries whose relevance region contains ``x``."""
        relevant = [e for e in self.entries if e.relevant_at(x)]
        return relevant or list(self.entries)

    def frontier(self, x) -> list[tuple[Plan, dict[str, float]]]:
        """Non-dominated ``(plan, cost)`` pairs at ``x``.

        Paper: Figure 2's run-time phase: the Pareto frontier a stored
        plan set offers at x; reached by tests.
        """
        return pareto_filter([(e.plan, e.cost.evaluate(x))
                              for e in self.plans_for(x)])

    def select(self, x, weights) -> tuple[Plan, dict[str, float]]:
        """Weighted-sum selection at run time."""
        best = None
        for entry in self.plans_for(x):
            cost = entry.cost.evaluate(x)
            score = sum(weights.get(m, 0.0) * v for m, v in cost.items())
            if best is None or score < best[0]:
                best = (score, entry.plan, cost)
        if best is None:
            raise SerializationError("stored plan set is empty")
        return best[1], best[2]


def decode_plan_set(doc: dict) -> StoredPlanSet:
    """Decode a stored plan set document.

    Raises:
        SerializationError: On version mismatch or malformed content.
    """
    if doc.get("version") != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported plan-set version {doc.get('version')!r}")
    entries = []
    for entry_doc in doc.get("entries", []):
        cost = MultiObjectivePWL({name: _decode_pwl(f)
                                  for name, f in entry_doc["cost"].items()})
        region_doc = entry_doc["region"]
        entries.append(StoredEntry(
            plan=_decode_plan(entry_doc["plan"]),
            cost=cost,
            space=_decode_polytope(region_doc["space"]),
            cutouts=tuple(_decode_polytope(c)
                          for c in region_doc["cutouts"])))
    return StoredPlanSet(num_params=doc.get("num_params", 1),
                         entries=entries,
                         alpha=float(doc.get("alpha", 0.0)),
                         guarantee=float(doc.get("guarantee", 1.0)))
