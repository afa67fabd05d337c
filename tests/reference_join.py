"""The previous index-probe and equi-join kernels, verbatim, as a test oracle.

This is ``SortedIndex`` and ``equi_join_indices`` as they stood before
dense integer keys were located by direct addressing: every probe batch
binary-searches the sorted keys twice and expands the match runs in place.
``tests/test_joins.py`` and ``tests/test_properties.py`` hold the new
kernels to these arrays, in this order and with these dtypes.  Do not edit
except to delete.
"""

from __future__ import annotations

import numpy as np

from repro.executor.joins import JoinOverflowError, MAX_JOIN_RESULT_ROWS


class SortedIndex:
    """A sorted secondary index over one column of a table."""

    def __init__(self, table_name: str, column: str, values: np.ndarray):
        self.table_name = table_name
        self.column = column
        order = np.argsort(values, kind="stable")
        self._sorted_values = values[order]
        self._row_ids = order.astype(np.int64, copy=False)

    def lookup_batch(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Probe the index with a batch of keys.

        Returns ``(probe_positions, row_ids)`` where ``probe_positions[i]`` is
        the position in ``keys`` that matched and ``row_ids[i]`` is the
        matching row in the indexed table.  A probe key with *k* matches
        contributes *k* entries.
        """
        from repro.executor.joins import JoinOverflowError, MAX_JOIN_RESULT_ROWS

        lo = np.searchsorted(self._sorted_values, keys, side="left")
        hi = np.searchsorted(self._sorted_values, keys, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        if total > MAX_JOIN_RESULT_ROWS:
            raise JoinOverflowError(
                f"index probe would produce {total} rows "
                f"(cap {MAX_JOIN_RESULT_ROWS}); aborting the query")
        probe_positions = np.repeat(np.arange(len(keys), dtype=np.int64), counts)
        # Build the flattened list of matched sorted-positions.
        offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
        within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
        sorted_positions = np.repeat(lo, counts) + within
        return probe_positions, self._row_ids[sorted_positions]


def equi_join_indices(left_keys: np.ndarray,
                      right_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row indices ``(left_idx, right_idx)`` of all equi-join matches.

    The result enumerates every pair ``(i, j)`` with
    ``left_keys[i] == right_keys[j]``, probe-major: ``left_idx`` ascends
    and, within one left row, ``right_idx`` follows the right side's
    stable sort order.  A join producing more than
    :data:`MAX_JOIN_RESULT_ROWS` matches raises
    :class:`JoinOverflowError` before materializing them.
    """
    if len(left_keys) == 0 or len(right_keys) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty

    # Sort the right side once, then locate the matching run of every left key.
    order = np.argsort(right_keys, kind="stable")
    sorted_keys = right_keys[order]
    lo = np.searchsorted(sorted_keys, left_keys, side="left")
    hi = np.searchsorted(sorted_keys, left_keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if total > MAX_JOIN_RESULT_ROWS:
        raise JoinOverflowError(
            f"equi-join would produce {total} rows "
            f"(cap {MAX_JOIN_RESULT_ROWS}); aborting the query")

    left_idx = np.repeat(np.arange(len(left_keys), dtype=np.int64), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    right_sorted_pos = np.repeat(lo, counts) + within
    right_idx = order[right_sorted_pos]
    return left_idx, right_idx
