"""Synthetic database catalog: tables, columns, indexes."""

from .catalog import Catalog
from .column import Column
from .index import Index
from .table import Table

__all__ = [
    "Catalog",
    "Column",
    "Index",
    "Table",
]
