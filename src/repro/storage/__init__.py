"""Storage subsystem: in-memory columnar tables, indexes, and the database.

This replaces the PostgreSQL storage layer used in the paper.  Tables are
columnar (one numpy array per column, strings stored as dictionary codes,
see :mod:`repro.storage.dictionary`), indexes are sorted permutations that
support vectorized equality probes (the analogue of B+tree index lookups),
and a :class:`~repro.storage.database.Database` bundles the schema, the
base tables, their statistics, the configured indexes, and any temporary
tables materialized during re-optimization.
"""

from repro.storage.table import DataTable
from repro.storage.index import SortedIndex
from repro.storage.database import Database, IndexConfig

__all__ = ["DataTable", "SortedIndex", "Database", "IndexConfig"]
