"""Execution engine: synthetic data generation and plan execution.

Materializes the synthetic catalog as numpy column arrays and executes
optimizer plan trees against them, reporting actual result rows plus
simulated time/work following the Cloud cost model's formulas — fed with
the real intermediate-result sizes instead of estimates.
"""

from .data import (Database, MaterializedTable, generate_database,
                   threshold_for_selectivity)
from .executor import ExecutionResult, Executor, Relation

__all__ = [
    "Database",
    "ExecutionResult",
    "Executor",
    "MaterializedTable",
    "Relation",
    "generate_database",
    "threshold_for_selectivity",
]
