"""Schema objects: tables, columns, and primary/foreign-key relationships.

The primary-key / foreign-key metadata recorded here is the backbone of the
FK-Center (called "RCenter" in parts of the paper) subquery generation
strategy: QuerySplit classifies every relation referenced by a query as an
R-relation (holds a foreign key, i.e. a "relationship"/fact table) or an
E-relation (its primary key is referenced, i.e. an "entity"/dimension table)
and orients the join-graph edges from R-relations to E-relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.types import DataType


@dataclass(frozen=True)
class Column:
    """A column definition inside a :class:`TableSchema`."""

    name: str
    dtype: DataType

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("column name must be non-empty")


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key constraint: ``column`` references ``ref_table.ref_column``."""

    column: str
    ref_table: str
    ref_column: str


@dataclass
class TableSchema:
    """Schema of a single table.

    Parameters
    ----------
    name:
        Table name (unique within a :class:`Schema`).
    columns:
        Ordered column definitions.
    primary_key:
        Name of the primary-key column, or ``None`` for tables without one.
    foreign_keys:
        Foreign-key constraints declared on this table.
    """

    name: str
    columns: list[Column]
    primary_key: str | None = None
    foreign_keys: list[ForeignKey] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate column names in table {self.name!r}")
        if self.primary_key is not None and self.primary_key not in names:
            raise ValueError(
                f"primary key {self.primary_key!r} is not a column of {self.name!r}"
            )
        for fk in self.foreign_keys:
            if fk.column not in names:
                raise ValueError(
                    f"foreign key column {fk.column!r} is not a column of {self.name!r}"
                )

    @property
    def column_names(self) -> list[str]:
        """Names of all columns, in declaration order."""
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        """Look up a column definition by name."""
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        """True if this table declares a column called ``name``."""
        return any(c.name == name for c in self.columns)

    def foreign_key_columns(self) -> set[str]:
        """Names of all columns that participate in a foreign-key constraint."""
        return {fk.column for fk in self.foreign_keys}

    def foreign_key_for(self, column: str) -> ForeignKey | None:
        """Return the foreign key declared on ``column``, if any."""
        for fk in self.foreign_keys:
            if fk.column == column:
                return fk
        return None


class Schema:
    """A collection of :class:`TableSchema` objects with PK/FK introspection."""

    def __init__(self, tables: list[TableSchema] | None = None):
        self._tables: dict[str, TableSchema] = {}
        for table in tables or []:
            self.add_table(table)

    def add_table(self, table: TableSchema) -> None:
        """Register a table schema (names must be unique)."""
        if table.name in self._tables:
            raise ValueError(f"table {table.name!r} already exists in schema")
        self._tables[table.name] = table

    def table(self, name: str) -> TableSchema:
        """Look up a table schema by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"schema has no table {name!r}") from None

    def has_table(self, name: str) -> bool:
        """True if a table called ``name`` is registered."""
        return name in self._tables

    def tables(self) -> list[TableSchema]:
        """All registered table schemas."""
        return list(self._tables.values())

    # ------------------------------------------------------------------
    # PK / FK introspection used by the join-graph construction
    # ------------------------------------------------------------------
    def is_fk_reference(self, from_table: str, from_col: str,
                        to_table: str, to_col: str) -> bool:
        """True if ``from_table.from_col`` is a foreign key to ``to_table.to_col``."""
        if not self.has_table(from_table):
            return False
        fk = self.table(from_table).foreign_key_for(from_col)
        return fk is not None and fk.ref_table == to_table and fk.ref_column == to_col

    def join_kind(self, left_table: str, left_col: str,
                  right_table: str, right_col: str) -> str:
        """Classify an equi-join predicate between two base tables.

        Returns one of:

        * ``"pk-fk"``   -- exactly one side is a foreign key referencing the
          other side's primary key (the non-expanding case QuerySplit favours);
        * ``"fk-fk"``   -- both sides are foreign keys referencing the same
          primary key (an implied join through a shared dimension);
        * ``"other"``   -- any other equi-join (e.g. fact-fact join on
          non-key columns).
        """
        left_to_right = self.is_fk_reference(left_table, left_col, right_table, right_col)
        right_to_left = self.is_fk_reference(right_table, right_col, left_table, left_col)
        if left_to_right or right_to_left:
            return "pk-fk"
        if self.has_table(left_table) and self.has_table(right_table):
            left_fk = self.table(left_table).foreign_key_for(left_col)
            right_fk = self.table(right_table).foreign_key_for(right_col)
            if (left_fk is not None and right_fk is not None
                    and left_fk.ref_table == right_fk.ref_table
                    and left_fk.ref_column == right_fk.ref_column):
                return "fk-fk"
        return "other"

    def __repr__(self) -> str:
        return f"Schema({', '.join(self._tables)})"
