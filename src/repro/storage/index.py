"""Sorted indexes supporting vectorized equality probes.

This is the stand-in for the B+tree indexes the paper builds on every primary
key (and optionally every foreign key) column of the JOB / TPC-H / DSB
schemas.  An index is the permutation that sorts the key column, mapping
sorted positions back to row ids, plus one of two ways to find the run of
sorted positions holding a probe key:

* **dense** -- integer keys whose span ``max - min + 1`` is at most about
  four times their number (every generated primary and foreign key).  A CSR
  ``starts`` array over ``key - min`` gives each key's run with two gathers;
  on a unique index a run has length 0 or 1 and needs no expansion.  The
  permutation comes from the same per-key counts, in linear time for
  unique keys and one integer sort otherwise (:func:`_dense_order`).
* **sorted** -- every other key column keeps the sorted keys, and a batch of
  probe keys is answered with two ``searchsorted`` calls, the vectorized
  analogue of repeated B+tree descents.  A probe batch of another dtype kind
  than a dense index's keys takes this path over the keys rebuilt from
  ``starts``.

Both paths return the same matches in the same order.
"""

from __future__ import annotations

import numpy as np


class SortedIndex:
    """A sorted secondary index over one column of a table.

    ``_row_ids`` lists the row ids in the stable sort order of the keys.  A
    dense index derives it from its key counts; every other index takes a
    stable ``argsort``.
    """

    def __init__(self, table_name: str, column: str, values: np.ndarray):
        from repro.executor.joins import dense_span

        self.table_name = table_name
        self.column = column
        self._dtype = values.dtype
        self._starts = self._sorted_values = None
        span = 0
        if values.dtype.kind == "i" and len(values):
            self._low = int(values.min())
            span = dense_span(self._low, int(values.max()), len(values))
        if span:
            # starts[s]..starts[s + 1] is the run of key low + s; the extra
            # slot ``span`` is empty and takes every out-of-range probe.
            slots = values.astype(np.int64) - self._low
            counts = np.bincount(slots, minlength=span)
            self._starts = np.zeros(
                span + 2, dtype=np.int32 if len(values) < 2 ** 31 else np.int64)
            np.cumsum(counts, dtype=self._starts.dtype, out=self._starts[1:span + 1])
            self._starts[-1] = len(values)
            self._unique = bool(counts.max() <= 1)
            self._row_ids = _dense_order(slots, counts, self._unique)
        else:
            order = np.argsort(values, kind="stable")
            self._sorted_values = values[order]
            self._row_ids = order.astype(np.int64, copy=False)

    @property
    def num_keys(self) -> int:
        """Number of indexed rows."""
        return len(self._row_ids)

    def lookup(self, key) -> np.ndarray:
        """Row ids of all rows whose key equals ``key``."""
        return self.lookup_batch(np.array([key]))[1]

    def lookup_batch(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Probe the index with a batch of keys.

        Returns ``(probe_positions, row_ids)`` where ``probe_positions[i]`` is
        the position in ``keys`` that matched and ``row_ids[i]`` is the
        matching row in the indexed table.  A probe key with *k* matches
        contributes *k* entries, in the indexed column's stable sort order;
        the entries are probe-major.
        """
        from repro.executor.joins import check_match_count, expand_matches, key_slots

        if self._starts is not None and keys.dtype.kind == "i":
            slots = key_slots(keys, self._low, len(self._starts) - 2)
            lo = self._starts.take(slots)
            counts = self._starts.take(slots + 1) - lo
            if self._unique:
                hit = np.flatnonzero(counts)
                check_match_count(len(hit))
                return hit, self._row_ids.take(lo[hit])
        else:
            sorted_values = self._sorted_keys()
            lo = np.searchsorted(sorted_values, keys, side="left")
            counts = np.searchsorted(sorted_values, keys, side="right") - lo
        probe_positions, sorted_positions = expand_matches(lo, counts)
        return probe_positions, self._row_ids.take(sorted_positions)

    def _sorted_keys(self) -> np.ndarray:
        """The indexed keys in sorted order, rebuilt from a dense index."""
        if self._sorted_values is not None:
            return self._sorted_values
        span = len(self._starts) - 2
        return np.repeat(np.arange(self._low, self._low + span, dtype=self._dtype),
                         np.diff(self._starts[:span + 1]))

    def __repr__(self) -> str:
        return f"SortedIndex({self.table_name}.{self.column}, keys={self.num_keys})"


def _dense_order(slots: np.ndarray, counts: np.ndarray, unique: bool) -> np.ndarray:
    """Row ids in stable ``slots`` order, from the slots' ``counts``.

    Unique slots scatter each row into its slot and keep the occupied
    ones.  Duplicate slots sort the composite ``slot * n + row``, whose
    order is the stable order of the slots, and keep its row part; when the
    composite could overflow ``int64`` they fall back to a stable argsort.
    """
    rows = len(slots)
    if unique:
        table = np.empty(len(counts), dtype=np.int64)
        table[slots] = np.arange(rows)
        return table[counts.astype(bool)]
    if len(counts) * rows >= 2 ** 63:
        return np.argsort(slots, kind="stable")
    composite = slots * rows
    composite += np.arange(rows)
    composite.sort()
    return np.remainder(composite, rows, out=composite)
