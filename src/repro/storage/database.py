"""The in-memory database: schema + tables + statistics + indexes + temporaries.

A :class:`Database` is the single object the optimizer and the executor share.
It corresponds to a loaded PostgreSQL instance in the paper's experiments: the
base tables of a benchmark (JOB / TPC-H / DSB), their ANALYZE statistics, the
B+tree indexes built on primary-key (and optionally foreign-key) columns, and
the temporary tables created while a re-optimization algorithm runs.

Base tables are load-once: :meth:`Database.load_table` encodes, analyzes
and indexes a table, and nothing writes to it afterwards.  Only the
temporary namespace changes while queries run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.catalog.analyze import analyze_table
from repro.catalog.schema import Schema
from repro.catalog.statistics import TableStats
from repro.storage.index import SortedIndex
from repro.storage.table import DataTable


class IndexConfig(enum.Enum):
    """Which columns get indexes (the paper evaluates both settings)."""

    PK_ONLY = "pk"
    PK_FK = "pk+fk"
    NONE = "none"


@dataclass
class TempTableEntry:
    """A materialized intermediate result registered in the database."""

    table: DataTable
    stats: TableStats
    covered_aliases: frozenset[str]


class Database:
    """In-memory database instance shared by the optimizer and executor.

    Loading a base table dictionary-encodes its eligible string columns
    (:mod:`repro.storage.dictionary`): the stored array becomes ``int32``
    codes into a sorted value dictionary, and scans evaluate string
    predicates in code space.  Indexed columns are never encoded.
    """

    def __init__(self, schema: Schema, index_config: IndexConfig = IndexConfig.PK_FK):
        self.schema = schema
        self.index_config = index_config
        self._tables: dict[str, DataTable] = {}
        self._stats: dict[str, TableStats] = {}
        self._indexes: dict[tuple[str, str], SortedIndex] = {}
        self._temp_tables: dict[str, TempTableEntry] = {}
        self._temp_counter = 0
        #: The database whose loaded data this instance exposes.  For a
        #: directly loaded database this is ``self``; a :meth:`session_view`
        #: shares its parent's origin, so consumers that must not be shared
        #: across *data* (e.g. :class:`~repro.executor.subplan_cache
        #: .SubplanCache`) can compare origins instead of instances.
        self.origin: "Database" = self

    # ------------------------------------------------------------------
    # Base table management
    # ------------------------------------------------------------------
    def load_table(self, table: DataTable, analyze: bool = True) -> None:
        """Register a base table, encode its strings, analyze and index it.

        Eligible string columns are re-stored as dictionary codes first;
        statistics read the codes and hold decoded values.
        """
        if not self.schema.has_table(table.name):
            raise KeyError(f"table {table.name!r} is not declared in the schema")
        table.encode_strings(skip=self._indexed_columns(table.name))
        self._tables[table.name] = table
        if analyze:
            self._stats[table.name] = analyze_table(table)
        else:
            self._stats[table.name] = TableStats.row_count_only(table.num_rows)
        self._build_indexes(table)

    def _indexed_columns(self, table_name: str) -> set[str]:
        """Columns the current :class:`IndexConfig` mandates indexes on."""
        if self.index_config is IndexConfig.NONE:
            return set()
        schema = self.schema.table(table_name)
        columns: set[str] = set()
        if schema.primary_key is not None:
            columns.add(schema.primary_key)
        if self.index_config is IndexConfig.PK_FK:
            columns.update(schema.foreign_key_columns())
        return columns

    def _build_indexes(self, table: DataTable) -> None:
        """Build the indexes mandated by the current :class:`IndexConfig`."""
        for column in self._indexed_columns(table.name):
            if table.has_column(column) and not table.is_encoded(column):
                self._indexes[(table.name, column)] = SortedIndex(
                    table.name, column, table.column(column))

    def table(self, name: str) -> DataTable:
        """Look up a base or temporary table by name."""
        if name in self._tables:
            return self._tables[name]
        if name in self._temp_tables:
            return self._temp_tables[name].table
        raise KeyError(f"no table named {name!r} is loaded")

    def has_table(self, name: str) -> bool:
        """True if a base or temporary table called ``name`` exists."""
        return name in self._tables or name in self._temp_tables

    def stats(self, name: str) -> TableStats:
        """Statistics for a base or temporary table."""
        if name in self._stats:
            return self._stats[name]
        if name in self._temp_tables:
            return self._temp_tables[name].stats
        raise KeyError(f"no statistics for table {name!r}")

    def is_temp(self, name: str) -> bool:
        """True if ``name`` refers to a temporary (materialized) table."""
        return name in self._temp_tables

    @property
    def base_table_names(self) -> list[str]:
        """Names of all loaded base tables."""
        return list(self._tables)

    # ------------------------------------------------------------------
    # Index access
    # ------------------------------------------------------------------
    def index(self, table_name: str, column: str) -> SortedIndex | None:
        """Return the index on ``table_name.column`` if one exists."""
        return self._indexes.get((table_name, column))

    def has_index(self, table_name: str, column: str) -> bool:
        """True if ``table_name.column`` is indexed (temporary tables never are)."""
        return (table_name, column) in self._indexes

    # ------------------------------------------------------------------
    # Temporary tables (materialized intermediate results)
    # ------------------------------------------------------------------
    def register_temp(self, table: DataTable, stats: TableStats,
                      covered_aliases: frozenset[str]) -> str:
        """Register a materialized intermediate result and return its name."""
        self._temp_counter += 1
        name = f"__temp_{self._temp_counter}"
        table = DataTable(name=name, columns=table.columns,
                          dictionaries=table.dictionaries)
        self._temp_tables[name] = TempTableEntry(
            table=table, stats=stats, covered_aliases=covered_aliases)
        return name

    def temp_entry(self, name: str) -> TempTableEntry:
        """Return the bookkeeping entry of a temporary table."""
        return self._temp_tables[name]

    def drop_temp_tables(self) -> None:
        """Drop every temporary table (called between queries)."""
        self._temp_tables.clear()
        self._temp_counter = 0

    @property
    def temp_table_names(self) -> list[str]:
        """Names of all registered temporary tables."""
        return list(self._temp_tables)

    def temp_memory_bytes(self) -> int:
        """Total memory used by all live temporary tables."""
        return sum(entry.table.memory_bytes for entry in self._temp_tables.values())

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def session_view(self) -> "Database":
        """A per-session view: shared base data, private temporary tables.

        Re-optimization algorithms mutate the database while they run —
        they :meth:`register_temp` materialized intermediates and
        :meth:`drop_temp_tables` *all* of them when a query finishes.  Two
        queries running concurrently against the same instance would
        therefore drop each other's temporaries mid-flight.  A session view
        shares the loaded base tables, statistics, and indexes **by
        reference** but keeps its own temporary namespace, so each serving
        worker executes against its own view while paying zero data-copy
        cost.  The sharing is safe because base tables are load-once:
        nothing writes to them after :meth:`load_table`.

        Views share :attr:`origin` with their parent, which is how the
        (lock-protected) subplan cache recognizes that chunks cached through
        one view are valid for every sibling view.  Do not load further base
        tables through a view or its parent once views exist.
        """
        view = Database.__new__(Database)
        view.schema = self.schema
        view.index_config = self.index_config
        view._tables = self._tables
        view._stats = self._stats
        view._indexes = self._indexes
        view._temp_tables = {}
        view._temp_counter = 0
        view.origin = self.origin
        return view

    def with_index_config(self, index_config: IndexConfig) -> "Database":
        """Return a new database over the same data with a different index setup."""
        clone = Database(self.schema, index_config=index_config)
        for name, table in self._tables.items():
            clone._tables[name] = table
            clone._stats[name] = self._stats[name]
            clone._build_indexes(table)
        return clone

    def __repr__(self) -> str:
        return (f"Database(tables={len(self._tables)}, temps={len(self._temp_tables)}, "
                f"indexes={len(self._indexes)}, config={self.index_config.value})")
