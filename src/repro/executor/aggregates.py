"""Grouping and aggregation on dense integer keys.

One kernel, :func:`group_aggregate`, serves the plan-root ``Aggregate``
operator, QuerySplit's ``_finalize`` and the non-SPJ aggregation nodes.  It
takes a :class:`~repro.storage.table.DataTable` whose dictionary-encoded
string columns are still ``int32`` codes (see
:mod:`repro.storage.dictionary`) and never looks at a string to find a
group:

* the key columns become one order-preserving id per row by the engine's
  one key encoder (:func:`~repro.executor.joins.dense_ids`: codes and
  integers addressed directly where an index would, first key most
  significant), so group ids ascend in the lexicographic key order the
  output rows are emitted in;
* when the ids' span is one an index would address directly
  (:func:`~repro.storage.index.dense_span`) the groups are found by
  ``np.bincount`` without sorting, otherwise by one stable integer argsort
  (:func:`_find_groups`);
* counts, float sums and averages are ``np.bincount`` over the group ids;
  integer sums (exact in ``int64``) and MIN/MAX go through one stable
  argsort of the group ids, shared by all of them, plus ``reduceat``.
  MIN/MAX of an encoded column is the min/max of its non-NULL codes,
  decoded once per group.

The row count is the table's own ``num_rows``: a ``count(*)`` input reads
no column and arrives as a zero-column table that still carries it.

:func:`weighted_aggregate` is the scalar kernel over a join that was never
expanded: each aggregated column at the rows of one join side plus how
many join rows each of those rows is in.  It serves the functions
:func:`weighted_exact` admits, whose answer and element type cannot differ
from the kernel's over the expanded rows.

**Output contract.**  Key columns are the input's own arrays at each
group's first row (codes stay codes, dictionary shared by reference).
Aggregate outputs are ``dtype=object`` columns whose elements are: Python
``int`` for ``count``; the numpy scalar ``reduceat`` yields for ``sum`` /
``min`` / ``max`` of a numeric column (``np.int64`` / ``np.float64`` for the
engine's column types); Python ``float`` for ``avg``; ``str`` or ``None``
for MIN/MAX of a string column.  A scalar aggregate (empty ``group_by``)
over zero rows yields ``0`` for ``count`` and ``None`` otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.executor.joins import dense_ids
from repro.plan.expressions import ColumnRef
from repro.plan.logical import AggregateSpec
from repro.storage.dictionary import decode_lookup
from repro.storage.index import dense_span
from repro.storage.table import DataTable


class _Groups:
    """The rows of a table partitioned into ``len(counts)`` groups.

    ``ids`` is each row's group number (``None`` when there is a single
    group), ``counts`` each group's size and ``first`` each group's first
    row.  The row order that makes every group contiguous is computed on
    first use and shared by all aggregates that need it.
    """

    def __init__(self, ids: np.ndarray | None, counts: np.ndarray,
                 first: np.ndarray, order: np.ndarray | None = None):
        self.ids = ids
        self.counts = counts
        self.first = first
        self._order = order
        self._starts = np.cumsum(counts) - counts

    def segments(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``values`` in group order and each group's start in it (the two
        arguments of ``ufunc.reduceat``; groups are never empty)."""
        if self.ids is None:
            return values, self._starts
        if self._order is None:
            # Stable sorts of <= 16-bit integers are radix sorts.
            narrow = np.min_scalar_type(len(self.counts) - 1)
            self._order = np.argsort(self.ids.astype(narrow), kind="stable")
        return values[self._order], self._starts


def _find_groups(table: DataTable, group_by: tuple[ColumnRef, ...],
                 rows: int) -> _Groups:
    """Partition ``table``'s rows by the ``group_by`` columns."""
    if not group_by:
        return _Groups(None, np.array([rows]), np.zeros(1, dtype=np.int64))
    ids, span = dense_ids([table.column(ref.qualified) for ref in group_by])
    if dense_span(0, span - 1, rows):
        per_id = np.bincount(ids, minlength=span)
        occupied = np.flatnonzero(per_id)
        if len(occupied) < span:
            renumber = np.empty(span, dtype=np.int64)
            renumber[occupied] = np.arange(len(occupied))
            ids = renumber[ids]
        first = np.empty(len(occupied), dtype=np.int64)
        # Assigning in reverse row order leaves each group's earliest row.
        first[ids[::-1]] = np.arange(rows - 1, -1, -1)
        return _Groups(ids, per_id[occupied], first)

    order = np.argsort(ids, kind="stable")
    in_order = ids[order]
    boundary = np.ones(rows, dtype=bool)
    boundary[1:] = in_order[1:] != in_order[:-1]
    starts = np.flatnonzero(boundary)
    ids = np.empty(rows, dtype=np.int64)
    ids[order] = np.cumsum(boundary) - 1
    return _Groups(ids, np.diff(np.append(starts, rows)), order[starts], order)


def _aggregate(spec: AggregateSpec, table: DataTable, groups: _Groups) -> list:
    """One aggregate's value per group, as the output column's elements."""
    if spec.func == "count":
        return groups.counts.tolist()
    name = spec.column.qualified
    values = table.column(name)
    if name in table.dictionaries:
        lookup = decode_lookup(table.dictionaries[name])
        if spec.func == "max":
            # NULL is the smallest code and decodes through lookup[-1].
            return list(lookup[np.maximum.reduceat(*groups.segments(values))])
        if spec.func == "min":
            # Move NULL above every code: it loses to any string and still
            # decodes to None (lookup's last slot).
            codes = np.where(values < 0, len(lookup) - 1, values)
            return list(lookup[np.minimum.reduceat(*groups.segments(codes))])
        values = lookup[values]
    if spec.func == "min":
        return list(np.minimum.reduceat(*groups.segments(values)))
    if spec.func == "max":
        return list(np.maximum.reduceat(*groups.segments(values)))
    if values.dtype == np.float64 and groups.ids is not None:
        sums = np.bincount(groups.ids, weights=values,
                           minlength=len(groups.counts))
    else:
        sums = np.add.reduceat(*groups.segments(values))
    if spec.func == "sum":
        return list(sums)
    return (sums.astype(np.float64) / groups.counts).tolist()  # avg


def group_aggregate(table: DataTable, group_by: tuple[ColumnRef, ...],
                    aggregates: tuple[AggregateSpec, ...]) -> DataTable:
    """GROUP BY aggregation; an empty ``group_by`` is the scalar aggregate.

    Output rows ascend in key order (see the module docstring for the
    element types).
    """
    rows = table.num_rows
    columns: dict[str, np.ndarray] = {}
    dictionaries = {ref.qualified: table.dictionaries[ref.qualified]
                    for ref in group_by if ref.qualified in table.dictionaries}
    if rows == 0:
        for ref in group_by:
            columns[ref.qualified] = table.column(ref.qualified)[:0]
        for spec in aggregates:
            columns[spec.output_name] = np.array(
                [] if group_by else [0 if spec.func == "count" else None],
                dtype=object)
        return DataTable(name="aggregate", columns=columns,
                         dictionaries=dictionaries)
    groups = _find_groups(table, group_by, rows)
    for ref in group_by:
        columns[ref.qualified] = table.column(ref.qualified)[groups.first]
    for spec in aggregates:
        out = np.empty(len(groups.counts), dtype=object)
        out[:] = _aggregate(spec, table, groups)
        columns[spec.output_name] = out
    return DataTable(name="aggregate", columns=columns,
                     dictionaries=dictionaries)


def weighted_exact(func: str, dtype: np.dtype, encoded: bool) -> bool:
    """True when aggregate ``func`` over a column stored as ``dtype``
    (dictionary codes when ``encoded``) folds from per-row match counts
    (:func:`weighted_aggregate`) to exactly the value and element type it
    takes over the expanded rows: ``count`` always, and ``min`` / ``max`` /
    ``sum`` / ``avg`` of integers, ``min`` / ``max`` of codes too.  Floats
    are left out: a float sum depends on the order of its additions, and a
    float MIN or MAX over ``0.0`` and ``-0.0`` returns whichever zero the
    reduction meets last, and the expanded rows meet them in another
    order than the rows of one side."""
    if func == "count":
        return True
    if encoded:
        return func in ("min", "max")
    return func in ("min", "max", "sum", "avg") and dtype.kind in "iu"


def weighted_aggregate(total: int,
                       inputs: dict[str, tuple[np.ndarray, np.ndarray,
                                               np.ndarray | None]],
                       aggregates: tuple[AggregateSpec, ...]) -> DataTable:
    """The scalar :func:`group_aggregate` over ``total`` rows given in
    factorized form.

    ``inputs`` maps each aggregated column's qualified name to ``(values,
    weights, dictionary)``: the column at the rows of one join side, how
    many of the ``total`` rows each of those rows is in, and the column's
    dictionary when it holds codes.  Every function is
    :func:`weighted_exact` over its column.  ``count`` is ``total``,
    ``min`` / ``max`` are the kernel's own fold over the rows of positive
    weight, and an integer ``sum`` is ``sum(values * weights)`` in the
    kernel's own accumulator type, wrapping as it does; so the result
    equals the kernel's over the expanded rows, element type included.
    """
    columns: dict[str, np.ndarray] = {}
    for spec in aggregates:
        out = np.empty(1, dtype=object)
        if spec.func == "count":
            out[0] = total
        elif total == 0:
            out[0] = None
        else:
            name = spec.column.qualified
            values, weights, dictionary = inputs[name]
            if spec.func in ("min", "max"):
                # The kernel's own fold, over the rows of positive weight
                # as one group.
                matched = DataTable(
                    "matched", {name: values[weights > 0]},
                    dictionaries={} if dictionary is None else {name: dictionary})
                [out[0]] = _aggregate(spec, matched, _find_groups(
                    matched, (), matched.num_rows))
            else:
                dtype = np.add.reduce(values[:0]).dtype
                sums = np.dot(values.astype(dtype, copy=False),
                              weights.astype(dtype, copy=False))
                out[0] = sums if spec.func == "sum" else float(
                    np.float64(sums) / total)
        columns[spec.output_name] = out
    return DataTable(name="aggregate", columns=columns, dictionaries={})


def _scalar_aggregate(table: DataTable, aggregates: tuple[AggregateSpec, ...]
                      ) -> DataTable:
    """Ungrouped aggregates: :func:`group_aggregate` with no keys."""
    return group_aggregate(table, (), aggregates)


def union_all(tables: list[DataTable]) -> DataTable:
    """UNION ALL of result tables with identical column sets.

    A column stays encoded only when every input holds codes into the
    *same* dictionary object; codes of different dictionaries are not
    comparable, so such a column is decoded.  The row count is the sum of
    the inputs' (the only record of it when they have no columns).
    """
    if not tables:
        return DataTable(name="union", columns={})
    columns: dict[str, np.ndarray] = {}
    dictionaries: dict[str, np.ndarray] = {}
    for name in tables[0].column_names:
        dictionary = tables[0].dictionaries.get(name)
        if dictionary is not None and all(
                t.dictionaries.get(name) is dictionary for t in tables):
            dictionaries[name] = dictionary
            columns[name] = np.concatenate([t.column(name) for t in tables])
        else:
            columns[name] = np.concatenate(
                [t.column_values(name, cache=False) for t in tables])
    return DataTable(name="union", columns=columns, dictionaries=dictionaries,
                     num_rows=sum(t.num_rows for t in tables))
