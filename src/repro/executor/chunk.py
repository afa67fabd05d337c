"""Late-materialization chunks: selection-vector intermediates.

A :class:`Chunk` is the executor's intermediate-result representation.  It
does *not* store the payload columns of the rows it describes; it stores a
**row-id vector per input relation** (a selection vector into the underlying
columnar table) plus enough metadata to resolve any column on demand.  Joins
therefore only ever copy ``int64`` row ids, and real columns are gathered
from the base tables exactly once -- at the plan root, or when a join needs
its key columns.  A scalar aggregate over the root join builds no root
chunk at all: it reads the join's :class:`~repro.storage.index.Matches`
and gathers each aggregated column at its own side's rows
(:meth:`repro.executor.operators.Aggregate.execute_matches`).  Join keys
are gathered as *values* (:meth:`Chunk.column`); the plan root gathers
dictionary-encoded string columns as *codes* plus the table's dictionary
(:meth:`TableSource.gather_encoded`), so results and temporaries stay
encoded.

This is the standard late-materialization design of vectorized engines
(DuckDB-style selection vectors).  A join keeps only the sources that some
operator above it reads (:func:`merge_chunks`), and expands only the sides
of its :class:`~repro.storage.index.Matches` those sources need, so it
costs 8 bytes per output row per relation still read above it, however
many (and wide) columns the query touches; a root chunk that reads no
column (a ``count(*)`` that keeps the merged chunk, or a query that
outputs nothing) keeps none -- its joins expand no pair -- and its result
is a zero-column :class:`DataTable` that still carries the chunk's row
count.  Every relation inside a chunk is a :class:`TableSource` -- rows of
a base or temporary :class:`DataTable` addressed by a row-id vector.

All gathers are funneled through a :class:`MaterializationStats` object,
which reports the bytes an execution materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.plan.expressions import ColumnRef
from repro.plan.logical import RelationRef
from repro.storage.index import Matches
from repro.storage.table import DataTable


@dataclass
class MaterializationStats:
    """Byte accounting of everything an execution materialized."""

    gathered_bytes: int = 0

    def count(self, array: np.ndarray) -> None:
        """Record one materialized array (gathered column or copied vector).

        Dictionary codes gathered without decoding are charged what they
        are: four bytes a row.
        """
        if array.dtype == object:
            # Same accounting convention as DataTable.memory_bytes: pointer
            # plus an assumed 24-byte average string payload.
            self.gathered_bytes += array.nbytes + 24 * len(array)
        else:
            self.gathered_bytes += array.nbytes


class TableSource:
    """Rows of a base or temporary table addressed by a row-id vector.

    ``row_ids=None`` is the *identity* selection (an unfiltered scan): every
    table row in order.  Identity sources gather columns by reference (zero
    copy) and turn the first ``take`` into the index vector itself, so an
    unfiltered scan of a large table costs nothing until a filter or join
    actually selects from it.
    """

    __slots__ = ("relation", "table", "row_ids", "aliases")

    def __init__(self, relation: RelationRef, table: DataTable,
                 row_ids: np.ndarray | None = None):
        self.relation = relation
        self.table = table
        self.row_ids = row_ids
        self.aliases = relation.covered_aliases

    @property
    def num_rows(self) -> int:
        if self.row_ids is None:
            return self.table.num_rows
        return len(self.row_ids)

    def covers(self, alias: str) -> bool:
        """True if this source provides the columns of ``alias``."""
        return alias in self.aliases

    def read_by(self, reads: frozenset[str]) -> bool:
        """True if this source provides a column of an alias in ``reads``."""
        return not self.aliases.isdisjoint(reads)

    def gather(self, ref: ColumnRef,
               stats: MaterializationStats | None = None) -> np.ndarray:
        """Materialize one column's *values* for the rows this source selects."""
        if self.row_ids is None:
            # Identity selection: hand out the stored column by reference
            # (decoded -- and cached on the table -- when it is
            # dictionary-encoded, so consumers always see real values).
            return self.table.column_values(self.relation.storage_name(ref))
        data = self.table.gather(self.relation.storage_name(ref), self.row_ids)
        if stats is not None:
            stats.count(data)
        return data

    def gather_encoded(self, ref: ColumnRef,
                       stats: MaterializationStats | None = None
                       ) -> tuple[np.ndarray, np.ndarray | None]:
        """Like :meth:`gather`, but a dictionary-encoded column comes back
        as ``(codes, dictionary)`` -- the dictionary shared by reference,
        nothing decoded.  ``(values, None)`` for every other column."""
        name = self.relation.storage_name(ref)
        if not self.table.is_encoded(name):
            return self.gather(ref, stats), None
        codes = self.table.column(name)
        if self.row_ids is not None:
            codes = codes[self.row_ids]
            if stats is not None:
                stats.count(codes)
        return codes, self.table.dictionary(name)

    def take(self, indices: np.ndarray,
             stats: MaterializationStats | None = None) -> "TableSource":
        """A new source selecting ``self``'s rows at ``indices``."""
        if self.row_ids is None:
            # arange[indices] == indices: reuse the (read-only) index vector.
            return TableSource(self.relation, self.table, indices)
        row_ids = self.row_ids[indices]
        if stats is not None:
            stats.count(row_ids)
        return TableSource(self.relation, self.table, row_ids)

    @property
    def retained_bytes(self) -> int:
        """Bytes this source keeps alive beyond the stored tables."""
        return 0 if self.row_ids is None else self.row_ids.nbytes

    def __repr__(self) -> str:
        return (f"TableSource({self.relation.alias}, rows={self.num_rows})")


@dataclass
class Chunk:
    """A late-materialized intermediate result: one source per relation
    still read above it, and the row count (kept sources or none)."""

    sources: tuple[TableSource, ...]
    num_rows: int

    def covers(self, alias: str) -> bool:
        return any(source.covers(alias) for source in self.sources)

    def covers_all(self, aliases: frozenset[str]) -> bool:
        """True if the chunk kept a source for every alias in ``aliases``:
        whether it may serve a consumer that reads them."""
        return all(self.covers(alias) for alias in aliases)

    def source_for(self, alias: str) -> TableSource:
        for source in self.sources:
            if source.covers(alias):
                return source
        raise KeyError(f"chunk does not cover alias {alias!r}")

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def column(self, ref: ColumnRef,
               stats: MaterializationStats | None = None) -> np.ndarray:
        """Materialize one column's values for every row of the chunk
        (what joins compare: keys are values, never codes)."""
        return self.source_for(ref.alias).gather(ref, stats)

    def table(self, name: str, refs: tuple[ColumnRef, ...],
              stats: MaterializationStats | None = None) -> DataTable:
        """Gather ``refs`` (those the chunk covers) into a :class:`DataTable`
        whose dictionary-encoded columns are still codes, under the source
        tables' own dictionaries -- no string is decoded."""
        columns: dict[str, np.ndarray] = {}
        dictionaries: dict[str, np.ndarray] = {}
        for ref in refs:
            if self.covers(ref.alias):
                columns[ref.qualified], dictionary = self.source_for(
                    ref.alias).gather_encoded(ref, stats)
                if dictionary is not None:
                    dictionaries[ref.qualified] = dictionary
        return DataTable(name=name, columns=columns, dictionaries=dictionaries,
                         num_rows=self.num_rows)


def merge_chunks(left: Chunk, right: Chunk, matches: Matches,
                 reads: frozenset[str],
                 stats: MaterializationStats | None = None) -> Chunk:
    """Combine the matched rows of a join into one chunk of
    ``matches.total`` rows.

    Only the sources ``read_by(reads)`` -- the aliases some operator above
    the join reads -- are kept.  The probe positions are expanded only if a
    left source is kept, and the build row ids only if a right one is; no
    base-table column is touched.
    """
    # The build side first: its expansion's temporary positions are freed
    # before the probe side and the left sources' copies are allocated.
    right_sources = tuple(source.take(matches.row_ids(), stats)
                          for source in right.sources if source.read_by(reads))
    left_sources = tuple(source.take(matches.probe_positions(), stats)
                         for source in left.sources if source.read_by(reads))
    return Chunk(left_sources + right_sources, matches.total)
