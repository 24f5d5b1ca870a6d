"""Plan execution over materialized synthetic data.

Executes the plan trees produced by the optimizers against a
:class:`repro.engine.data.Database`, producing actual result rows plus
*simulated* execution costs that follow the same formulas as the Cloud
cost model — but fed with the **actual** intermediate-result sizes rather
than the optimizer's cardinality estimates.

This closes the loop the paper leaves open (its evaluation is optimizer-
only): tests and examples can check that the plans PWL-RRPA keeps really
are the right plans to keep, i.e. that simulated execution reproduces the
cost model's plan ordering wherever estimates are accurate.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..cloud.cluster import DEFAULT_CLUSTER, ClusterSpec
from ..cloud.pricing import DEFAULT_PRICING, PricingModel
from ..errors import PlanError
from ..plans import FULL_SCAN, INDEX_SEEK, JoinPlan, Plan, ScanPlan
from ..query import Query
from .data import Database, threshold_for_selectivity


@dataclass
class Relation:
    """An intermediate result: named column arrays of equal length.

    Column names are qualified as ``"table.column"``.
    """

    columns: dict[str, np.ndarray]

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        if not self.columns:
            return 0
        return int(next(iter(self.columns.values())).shape[0])

    def take(self, indices: np.ndarray) -> Relation:
        """Row subset by index array."""
        return Relation({name: arr[indices]
                         for name, arr in self.columns.items()})


@dataclass
class ExecutionResult:
    """Outcome of executing one plan.

    Attributes:
        relation: The result rows.
        time_hours: Simulated wall-clock time.
        work_hours: Simulated total node-busy time (drives fees).
        fees_usd: Monetary fees for the simulated work.
        tuples_processed: Total tuples that flowed through operators.
    """

    relation: Relation
    time_hours: float
    work_hours: float
    fees_usd: float
    tuples_processed: int

    @property
    def num_rows(self) -> int:
        """Rows in the final result."""
        return self.relation.num_rows


class Executor:
    """Executes plan trees over a materialized database.

    Args:
        query: The query whose predicates instantiate filters and joins.
        database: The materialized data.
        cluster: Hardware model for the simulated timing.
        pricing: Fee model.
    """

    def __init__(self, query: Query, database: Database,
                 cluster: ClusterSpec = DEFAULT_CLUSTER,
                 pricing: PricingModel = DEFAULT_PRICING) -> None:
        self.query = query
        self.database = database
        self.cluster = cluster
        self.pricing = pricing

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def execute(self, plan: Plan, x) -> ExecutionResult:
        """Execute ``plan`` with parameter values ``x``.

        Args:
            plan: A plan over (a subset of) the query's tables.
            x: Parameter vector; ``x[i]`` is the requested selectivity of
                the predicate with parameter index ``i``, realized as a
                range filter on the materialized data.

        Returns:
            The result relation plus simulated costs.
        """
        x = np.asarray(x, dtype=float).reshape(-1)
        relation, time_h, work_h, tuples = self._run(plan, x)
        return ExecutionResult(
            relation=relation, time_hours=time_h, work_hours=work_h,
            fees_usd=self.pricing.fees_for_work(work_h),
            tuples_processed=tuples)

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------

    def _run(self, plan: Plan, x):
        if isinstance(plan, ScanPlan):
            return self._run_scan(plan, x)
        if isinstance(plan, JoinPlan):
            return self._run_join(plan, x)
        raise PlanError(f"unknown plan node {plan!r}")

    def _scan_filter(self, table: str, x):
        """Row mask for the table's parametric predicate (or None)."""
        pred = self.query.parametric_predicate_of(table)
        if pred is None:
            return None
        values = self.database.table(table).column(pred.column)
        threshold = threshold_for_selectivity(
            self.database, table, pred.column,
            float(x[pred.parameter_index]))
        return values < threshold

    def _run_scan(self, plan: ScanPlan, x):
        data = self.database.table(plan.table)
        mask = self._scan_filter(plan.table, x)
        raw_rows = data.num_rows
        if mask is None:
            indices = np.arange(raw_rows)
        else:
            indices = np.nonzero(mask)[0]
        matched = int(indices.shape[0])

        if plan.operator.name == FULL_SCAN.name:
            time_h = self.cluster.scan_hours_per_tuple * raw_rows
            tuples = raw_rows
        elif plan.operator.name == INDEX_SEEK.name:
            if mask is None:
                raise PlanError(
                    f"index seek on {plan.table!r} without a predicate")
            time_h = (self.cluster.seek_startup_hours
                      + self.cluster.seek_hours_per_tuple * matched)
            tuples = matched
        else:
            raise PlanError(
                f"executor does not support scan {plan.operator.name!r}")

        columns = {f"{plan.table}.{name}": arr[indices]
                   for name, arr in data.columns.items()}
        return Relation(columns), time_h, time_h, tuples

    def _join_predicates_between(self, left_tables, right_tables):
        return self.query.join_graph.predicates_between(
            frozenset(left_tables), frozenset(right_tables))

    @staticmethod
    def _hash_join_indices(build: np.ndarray, probe: np.ndarray):
        """Matching (build_idx, probe_idx) arrays via a hash table."""
        table: dict[int, list[int]] = defaultdict(list)
        for i, key in enumerate(build.tolist()):
            table[key].append(i)
        build_out: list[int] = []
        probe_out: list[int] = []
        for j, key in enumerate(probe.tolist()):
            hits = table.get(key)
            if hits:
                build_out.extend(hits)
                probe_out.extend([j] * len(hits))
        return (np.asarray(build_out, dtype=np.int64),
                np.asarray(probe_out, dtype=np.int64))

    def _run_join(self, plan: JoinPlan, x):
        left_rel, lt, lw, l_tuples = self._run(plan.left, x)
        right_rel, rt, rw, r_tuples = self._run(plan.right, x)

        predicates = self._join_predicates_between(plan.left.tables,
                                                   plan.right.tables)
        if predicates:
            first, *rest = predicates
            left_key, right_key = self._orient(first, plan)
            li, ri = self._hash_join_indices(left_rel.columns[left_key],
                                             right_rel.columns[right_key])
            for pred in rest:
                lk, rk = self._orient(pred, plan)
                keep = (left_rel.columns[lk][li]
                        == right_rel.columns[rk][ri])
                li, ri = li[keep], ri[keep]
        else:
            # Cartesian product (postponed joins on disconnected graphs).
            li = np.repeat(np.arange(left_rel.num_rows),
                           right_rel.num_rows)
            ri = np.tile(np.arange(right_rel.num_rows),
                         left_rel.num_rows)

        joined = Relation({**left_rel.take(li).columns,
                           **right_rel.take(ri).columns})

        l_rows, r_rows = left_rel.num_rows, right_rel.num_rows
        out_rows = joined.num_rows
        through = l_rows + r_rows + out_rows
        cluster = self.cluster
        if plan.operator.name == "hash_join":
            local_time = through * cluster.process_hours_per_tuple
            local_work = local_time
            time_h = lt + rt + local_time
        elif plan.operator.name == "parallel_hash_join":
            shuffled = l_rows + r_rows
            local_time = (cluster.parallel_startup_hours
                          + (shuffled * cluster.shuffle_hours_per_tuple
                             + through * cluster.process_hours_per_tuple)
                          / cluster.num_nodes)
            local_work = (cluster.parallel_coordination_work_hours
                          + shuffled * cluster.shuffle_work_hours_per_tuple
                          + through * cluster.process_hours_per_tuple)
            time_h = lt + rt + local_time
        else:
            raise PlanError(
                f"executor does not support join {plan.operator.name!r}")
        work_h = lw + rw + local_work
        tuples = l_tuples + r_tuples + through
        return joined, time_h, work_h, tuples

    @staticmethod
    def _orient(pred, plan: JoinPlan) -> tuple[str, str]:
        """Qualified key columns of a predicate, oriented to (left, right)."""
        if pred.left_table in plan.left.tables:
            return (f"{pred.left_table}.{pred.left_column}",
                    f"{pred.right_table}.{pred.right_column}")
        return (f"{pred.right_table}.{pred.right_column}",
                f"{pred.left_table}.{pred.left_column}")
