"""The previous aggregation kernels, verbatim, as a test oracle.

This is ``repro.executor.aggregates`` as it stood before grouping moved
onto dictionary codes: it takes a dict of *decoded* column arrays, finds
groups with one ``np.unique`` per key column, and fills ``dtype=object``
outputs per group.  ``tests/test_executor.py`` holds the new kernel to
these values, this row order and these element types.  Do not edit except
to delete.
"""

from __future__ import annotations

import numpy as np

from repro.plan.expressions import ColumnRef
from repro.plan.logical import AggregateSpec
from repro.storage.table import DataTable

_MAX_COMBINED_CODE = 2 ** 62


def _num_rows(columns: dict[str, np.ndarray]) -> int:
    if not columns:
        return 0
    return len(next(iter(columns.values())))


def _scalar_aggregate(columns: dict[str, np.ndarray],
                      aggregates: tuple[AggregateSpec, ...],
                      num_rows: int | None = None) -> DataTable:
    """Apply scalar (ungrouped) aggregates to a result.

    ``num_rows`` overrides the row count inferred from ``columns`` -- needed
    for pure ``COUNT(*)`` queries whose input chunk carries no columns.
    """
    rows = _num_rows(columns) if num_rows is None else num_rows
    out: dict[str, np.ndarray] = {}
    for spec in aggregates:
        out[spec.output_name] = np.array([_aggregate_value(columns, spec, rows)],
                                         dtype=object)
    return DataTable(name="aggregate", columns=out)


def group_aggregate(columns: dict[str, np.ndarray],
                    group_by: tuple[ColumnRef, ...],
                    aggregates: tuple[AggregateSpec, ...]) -> DataTable:
    """GROUP BY aggregation over a joined result."""
    rows = _num_rows(columns)
    if not group_by:
        return _scalar_aggregate(columns, aggregates)
    key_arrays = [columns[ref.qualified] for ref in group_by]
    # Build group ids via successive uniquification of the key columns.  As
    # in joins.combine_key_pair, the running ``ids * span + inverse``
    # encoding is re-uniquified into a dense range whenever the next
    # extension could overflow int64 (equal composites stay equal, so the
    # grouping is unchanged).
    group_ids = np.zeros(rows, dtype=np.int64)
    for arr in key_arrays:
        _, inverse = np.unique(arr, return_inverse=True)
        span = int(inverse.max()) + 1 if rows else 1
        current_max = int(group_ids.max()) if rows else 0
        if current_max and span > _MAX_COMBINED_CODE // (current_max + 1):
            _, group_ids = np.unique(group_ids, return_inverse=True)
            group_ids = group_ids.astype(np.int64)
        group_ids = group_ids * span + inverse
    uniq_ids, group_index, inverse = np.unique(group_ids, return_index=True,
                                               return_inverse=True)
    out: dict[str, np.ndarray] = {}
    for ref in group_by:
        out[ref.qualified] = columns[ref.qualified][group_index]
    order = np.argsort(inverse, kind="stable")
    starts = np.searchsorted(inverse[order], np.arange(len(uniq_ids)))
    counts = np.diff(np.append(starts, rows))
    for spec in aggregates:
        data = (columns[spec.column.qualified] if spec.column is not None else None)
        out[spec.output_name] = _segment_aggregate(data, order, starts, counts, spec)
    return DataTable(name="aggregate", columns=out)


def _segment_aggregate(data: np.ndarray | None, order: np.ndarray,
                       starts: np.ndarray, counts: np.ndarray,
                       spec: AggregateSpec) -> np.ndarray:
    """One aggregate over every group segment, fully vectorized.

    ``order`` sorts the input rows by group; ``starts`` holds each group's
    first position in that ordering.  Groups are never empty (they exist
    because at least one row mapped to them), which is what makes plain
    ``reduceat`` safe here.
    """
    num_groups = len(starts)
    out = np.empty(num_groups, dtype=object)
    if num_groups == 0:
        return out
    if spec.func == "count":
        out[:] = [int(c) for c in counts]
        return out
    sorted_vals = data[order]
    if spec.func == "sum":
        out[:] = list(np.add.reduceat(sorted_vals, starts))
    elif spec.func == "min":
        out[:] = list(np.minimum.reduceat(sorted_vals, starts))
    elif spec.func == "max":
        out[:] = list(np.maximum.reduceat(sorted_vals, starts))
    else:  # avg
        sums = np.add.reduceat(sorted_vals, starts).astype(np.float64)
        out[:] = [float(v) for v in sums / counts]
    return out


def _aggregate_value(columns: dict[str, np.ndarray], spec: AggregateSpec,
                     rows: int):
    if spec.func == "count" and spec.column is None:
        return rows
    data = columns[spec.column.qualified]
    return _aggregate_over(data, np.arange(rows), spec)


def _aggregate_over(data: np.ndarray | None, member_rows: np.ndarray,
                    spec: AggregateSpec):
    if spec.func == "count":
        return int(len(member_rows))
    if data is None or len(member_rows) == 0:
        return None
    values = data[member_rows]
    if spec.func == "min":
        return values.min()
    if spec.func == "max":
        return values.max()
    if spec.func == "sum":
        return values.sum()
    return float(values.sum()) / len(values)
