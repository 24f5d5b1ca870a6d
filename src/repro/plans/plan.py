"""Query plan trees.

A query plan specifies the join order and the operators executing scan and
join operations (Section 2).  Plans are immutable trees: leaves are
:class:`ScanPlan` nodes (one base table + access path), inner nodes are
:class:`JoinPlan` nodes combining two sub-plans with a join operator — the
paper's ``Combine(p1, p2, o)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

from ..errors import PlanError
from .operators import JoinOperator, ScanOperator


class Plan:
    """Base class for plan tree nodes."""

    @property
    def tables(self) -> frozenset[str]:
        """The set of base tables the plan joins."""
        raise NotImplementedError

    def nodes(self) -> Iterator[Plan]:
        """Yield all nodes of the plan tree (pre-order)."""
        raise NotImplementedError

    def signature(self) -> tuple:
        """Hashable structural identity (used for de-duplication in tests)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScanPlan(Plan):
    """A leaf plan scanning one base table.

    Attributes:
        table: The scanned table's name.
        operator: The access path (full scan, index seek, sampled scan).
    """

    table: str
    operator: ScanOperator

    @property
    def tables(self) -> frozenset[str]:
        return frozenset((self.table,))

    def nodes(self) -> Iterator[Plan]:
        yield self

    def signature(self) -> tuple:
        return ("scan", self.table, self.operator.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.operator.name}({self.table})"


@dataclass(frozen=True)
class JoinPlan(Plan):
    """An inner node joining two disjoint sub-plans.

    Attributes:
        left: Sub-plan producing the left (build) input.
        right: Sub-plan producing the right (probe) input.
        operator: The join operator.
    """

    left: Plan
    right: Plan
    operator: JoinOperator

    def __post_init__(self) -> None:
        if self.left.tables & self.right.tables:
            raise PlanError(
                f"join inputs overlap: {sorted(self.left.tables)} vs "
                f"{sorted(self.right.tables)}")

    @property
    def tables(self) -> frozenset[str]:
        return self.left.tables | self.right.tables

    def nodes(self) -> Iterator[Plan]:
        yield self
        yield from self.left.nodes()
        yield from self.right.nodes()

    def signature(self) -> tuple:
        return ("join", self.operator.name, self.left.signature(),
                self.right.signature())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.operator.name}({self.left!r}, {self.right!r})"


def combine(left: Plan, right: Plan, operator: JoinOperator) -> JoinPlan:
    """The paper's ``Combine(p1, p2, o)``: join two disjoint plans."""
    return JoinPlan(left=left, right=right, operator=operator)
