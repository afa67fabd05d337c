"""Columnar in-memory tables.

A :class:`DataTable` stores one numpy array per column.  Base tables use bare
column names (``id``, ``movie_id``); intermediate results produced by the
executor use qualified names (``t.id``, ``mk.movie_id``) so that columns from
different relations never collide after a join.

String columns of a loaded base table are stored as dictionary codes
(:meth:`DataTable.encode_strings`, called by :meth:`Database.load_table
<repro.storage.database.Database.load_table>`).  Tables are never written
after they are loaded, so dictionaries and indexes stay valid for a
table's lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.storage.dictionary import decode_lookup, encode_column


@dataclass
class DataTable:
    """A columnar, in-memory table.

    Tables are immutable once built.  A base table's storage changes only
    while :meth:`Database.load_table
    <repro.storage.database.Database.load_table>` encodes its strings
    (:meth:`encode_strings`).

    Parameters
    ----------
    name:
        Table name (base table name or a generated temporary-table name).
    columns:
        Mapping of column name to numpy array.  All arrays must have the same
        length.  Dictionary-encoded string columns (see
        :meth:`encode_strings`) store ``int32`` code arrays here, with the
        sorted value dictionary in :attr:`dictionaries`.
    """

    name: str
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    #: Sorted value dictionary per dictionary-encoded column: the stored
    #: array holds ``int32`` codes into it (``-1`` = NULL).  Excluded from
    #: equality: encoding is a storage representation, not data.  Results, temporaries and every table
    #: derived from another one hold the *same* dictionary objects as the
    #: base table the codes came from (passed in here, never copied).
    dictionaries: dict[str, np.ndarray] = field(default_factory=dict,
                                                compare=False, repr=False)

    def __post_init__(self) -> None:
        lengths = {len(arr) for arr in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(
                f"columns of table {self.name!r} have differing lengths: {lengths}")
        #: Lazily cached decoded columns (query-time identity gathers).
        self._decoded: dict[str, np.ndarray] = {}
        #: Columns whose dictionary this table built (:meth:`encode_strings`)
        #: rather than borrowed; only those are charged to its memory.
        self._owned_dictionaries: set[str] = set()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of rows in the table."""
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    @property
    def column_names(self) -> list[str]:
        """Names of all columns."""
        return list(self.columns)

    def column(self, name: str) -> np.ndarray:
        """Return the array for column ``name``."""
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(f"table {self.name!r} has no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        """True if the table has a column called ``name``."""
        return name in self.columns

    def gather(self, name: str, row_ids: np.ndarray) -> np.ndarray:
        """Materialize column ``name`` at the given row ids.

        This is where a selection vector becomes real column *values*:
        join keys and index-probe residuals.  Dictionary-encoded columns
        are decoded here -- only for the selected rows.  (The plan root
        does not come through here for encoded columns: it takes
        ``codes[row_ids]`` and this table's dictionary, see
        :meth:`repro.executor.chunk.TableSource.gather_encoded`.)
        """
        selected = self.column(name)[row_ids]
        if name in self.dictionaries:
            return decode_lookup(self.dictionaries[name])[selected]
        return selected

    # ------------------------------------------------------------------
    # Dictionary encoding
    # ------------------------------------------------------------------
    def is_encoded(self, name: str) -> bool:
        """True if column ``name`` is stored as dictionary codes."""
        return name in self.dictionaries

    def dictionary(self, name: str) -> np.ndarray:
        """The sorted value dictionary of an encoded column."""
        return self.dictionaries[name]

    def column_values(self, name: str, cache: bool = True) -> np.ndarray:
        """The full *decoded* column (the stored array when unencoded).

        Whole-column consumers that need real values (identity-selection
        gathers, callers reading results) funnel through here.  ``cache=True`` keeps the decoded array for reuse across
        queries; one-shot consumers pass ``cache=False``.
        """
        if name not in self.dictionaries:
            return self.column(name)
        if name in self._decoded:
            return self._decoded[name]
        values = decode_lookup(self.dictionaries[name])[self.columns[name]]
        if cache:
            self._decoded[name] = values
        return values

    def encode_strings(self, skip: set[str] | frozenset[str] = frozenset()
                       ) -> list[str]:
        """Dictionary-encode every eligible object column in place.

        Eligible means: object dtype, every non-null value a plain string,
        and not listed in ``skip`` (indexed columns stay raw so sorted
        indexes keep operating on values).  Returns the encoded names.
        """
        encoded = []
        for name, values in list(self.columns.items()):
            if name in skip or name in self.dictionaries:
                continue
            result = encode_column(values)
            if result is None:
                continue
            codes, dictionary = result
            self.columns[name] = codes
            self.dictionaries[name] = dictionary
            self._owned_dictionaries.add(name)
            self._decoded.pop(name, None)
            encoded.append(name)
        return encoded

    # ------------------------------------------------------------------
    # Row-level operations (vectorized)
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray, name: str | None = None) -> "DataTable":
        """Return a new table containing the rows selected by ``indices``."""
        if not self.columns and len(indices):
            # A zero-column table has no rows (num_rows is necessarily 0), so
            # any non-empty selection refers to rows that do not exist.
            # Failing loudly here beats silently producing a 0-row result
            # downstream of a Scan/Aggregate that believed rows were selected.
            raise ValueError(
                f"cannot select {len(indices)} row(s) from zero-column table "
                f"{self.name!r}")
        return DataTable(
            name=name or self.name,
            columns={col: arr[indices] for col, arr in self.columns.items()},
            dictionaries=dict(self.dictionaries),
        )

    def filter(self, mask: np.ndarray, name: str | None = None) -> "DataTable":
        """Return a new table containing only rows where ``mask`` is True."""
        if not self.columns and np.any(mask):
            raise ValueError(
                f"cannot select rows from zero-column table {self.name!r}")
        return DataTable(
            name=name or self.name,
            columns={col: arr[mask] for col, arr in self.columns.items()},
            dictionaries=dict(self.dictionaries),
        )

    def project(self, names: list[str], name: str | None = None) -> "DataTable":
        """Return a new table containing only the listed columns."""
        return DataTable(
            name=name or self.name,
            columns={col: self.columns[col] for col in names},
            dictionaries={col: d for col, d in self.dictionaries.items()
                          if col in names},
        )

    def rename_columns(self, mapping: dict[str, str], name: str | None = None) -> "DataTable":
        """Return a new table with columns renamed according to ``mapping``."""
        return DataTable(
            name=name or self.name,
            columns={mapping.get(col, col): arr for col, arr in self.columns.items()},
            dictionaries={mapping.get(col, col): d
                          for col, d in self.dictionaries.items()},
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, name: str, column_names: list[str], rows: list[tuple]) -> "DataTable":
        """Build a table from a list of row tuples (convenience for tests)."""
        if not rows:
            return cls(name=name, columns={c: np.array([]) for c in column_names})
        columns = {}
        for i, col in enumerate(column_names):
            values = [row[i] for row in rows]
            if all(isinstance(v, (int, np.integer)) for v in values):
                columns[col] = np.array(values, dtype=np.int64)
            elif all(isinstance(v, (int, float, np.integer, np.floating)) for v in values):
                columns[col] = np.array(values, dtype=np.float64)
            else:
                columns[col] = np.array(values, dtype=object)
        return cls(name=name, columns=columns)

    def to_rows(self) -> list[tuple]:
        """Return the table contents as a list of row tuples (tests only)."""
        names = self.column_names
        arrays = [self.column_values(c, cache=False) for c in names]
        return [tuple(arr[i] for arr in arrays) for i in range(self.num_rows)]

    # ------------------------------------------------------------------
    # Memory accounting (for the Table 4 reproduction)
    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Approximate memory footprint of the table in bytes."""
        total = 0
        for name, arr in self.columns.items():
            if name in self.dictionaries:
                # int32 codes; the dictionary payload (pointer + assumed
                # 24-byte average string per distinct value) is charged to
                # the table that built it, not to results and temporaries
                # that only reference it.
                total += arr.nbytes
                if name in self._owned_dictionaries:
                    dictionary = self.dictionaries[name]
                    total += dictionary.nbytes + 24 * len(dictionary)
            elif arr.dtype == object:
                # Assume an average of 24 bytes per string payload plus the
                # 8-byte pointer stored in the array itself.
                total += arr.nbytes + 24 * len(arr)
            else:
                total += arr.nbytes
        return total

    def __repr__(self) -> str:
        return f"DataTable({self.name!r}, rows={self.num_rows}, cols={len(self.columns)})"
