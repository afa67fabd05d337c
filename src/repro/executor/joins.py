"""Low-level vectorized equi-join primitives and the engine's one key encoder.

These helpers find the matches of an equi-join between two key arrays,
keeping the whole join in numpy.  A hash join (:func:`equi_join_matches`)
builds a transient :class:`~repro.storage.index.SortedIndex` over its build
side and probes it, exactly as an index nested-loop join probes a base
table's index, so one structure finds every join's matches.

Every join finds, for each probe key, the run of matching build rows as a
start ``lo`` and a length ``count``, and returns them as a
:class:`~repro.storage.index.Matches`: the runs and their ``total``, checked
against :data:`MAX_JOIN_RESULT_ROWS` before anything is allocated.  The
operators expand only the index vectors their output keeps;
:func:`equi_join_indices` expands both, as probe-major index pairs.

:func:`dense_ids` decides key equality for everything that compares
composite keys: GROUP BY ids, both sides of a multi-key join (encoded
together, so equal keys get equal ids on both), and the true-cardinality
oracle's :func:`count_matches`, which counts a join's matches as the dot
product of its two sides' per-id row counts without materializing them.
It addresses a key column directly exactly where the index would
(:func:`~repro.storage.index.dense_span`).

A NULL key matches nothing, by the engine's one NULL rule
(:func:`repro.storage.dictionary.null_mask`): the index leaves NULL keys
out, and a multi-key join or count drops the rows with a NULL in any key
column (:func:`~repro.storage.index.drop_null_rows`) before it encodes
them; a join maps the positions back when a side is expanded.
"""

from __future__ import annotations

import numpy as np

from repro.storage.index import Matches, SortedIndex, dense_span, drop_null_rows

#: Hard cap on the number of matches a single equi-join may materialize.
#: Joins beyond this are the Python-engine analogue of the paper's 1000 s
#: query timeout: the run is aborted and reported as timed out.
MAX_JOIN_RESULT_ROWS = 40_000_000


class JoinOverflowError(RuntimeError):
    """Raised when an equi-join would materialize more rows than the cap."""


def check_match_count(total: int) -> None:
    """Raise :class:`JoinOverflowError` when ``total`` matches exceed the cap."""
    if total > MAX_JOIN_RESULT_ROWS:
        raise JoinOverflowError(
            f"join would produce {total} rows "
            f"(cap {MAX_JOIN_RESULT_ROWS}); aborting the query")


def equi_join_matches(left_keys: np.ndarray, right_keys: np.ndarray) -> Matches:
    """The :class:`Matches` of ``left_keys`` (probe) against
    ``right_keys`` (build), found through a transient
    :class:`~repro.storage.index.SortedIndex` over the build side."""
    if len(left_keys) == 0 or len(right_keys) == 0:
        return Matches.empty()
    return SortedIndex("build", "key", right_keys).matches(left_keys)


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
    return equi_join_matches(left_keys, right_keys).pairs()


def multi_key_matches(left_keys: list[np.ndarray],
                      right_keys: list[np.ndarray]) -> Matches:
    """The :class:`Matches` of an equi-join on one or more key columns
    (a conjunction of equalities)."""
    if len(left_keys) != len(right_keys) or not left_keys:
        raise ValueError("both sides must provide the same, non-zero number of keys")
    if len(left_keys) == 1:
        return equi_join_matches(left_keys[0], right_keys[0])
    left_keys, left_rows = drop_null_rows(left_keys)
    right_keys, right_rows = drop_null_rows(right_keys)
    if len(left_keys[0]) == 0 or len(right_keys[0]) == 0:
        return Matches.empty()
    left_ids, right_ids, _ = _shared_ids(left_keys, right_keys)
    return equi_join_matches(left_ids, right_ids).remap(left_rows, right_rows)


def count_matches(left_keys: list[np.ndarray],
                  right_keys: list[np.ndarray]) -> int:
    """Exact number of matches of :func:`multi_key_matches`, never
    materialized and never capped: per key id, the left rows holding it
    times the right rows holding it, summed."""
    left_keys, _ = drop_null_rows(left_keys)
    right_keys, _ = drop_null_rows(right_keys)
    if len(left_keys[0]) == 0 or len(right_keys[0]) == 0:
        return 0
    left_ids, right_ids, span = _shared_ids(left_keys, right_keys)
    return int(np.dot(np.bincount(left_ids, minlength=span),
                      np.bincount(right_ids, minlength=span)))


def _shared_ids(left_keys: list[np.ndarray], right_keys: list[np.ndarray]
                ) -> tuple[np.ndarray, np.ndarray, int]:
    """Both sides' keys as :func:`dense_ids` of one shared encoding (equal
    keys, equal ids, on either side) and its span, renumbered densely when
    the span is too wide to address directly."""
    ids, span = dense_ids([np.concatenate(pair)
                           for pair in zip(left_keys, right_keys)])
    if not dense_span(0, span - 1, len(ids)):
        uniques, ids = np.unique(ids, return_inverse=True)
        span = len(uniques)
    n_left = len(left_keys[0])
    return ids[:n_left], ids[n_left:], span


#: Largest span the running encoding of :func:`dense_ids` may reach before
#: it renumbers its codes densely (conservatively half of int64).
_MAX_COMBINED_CODE = 2 ** 62


def dense_ids(columns: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """The rows of one or more equally long, non-empty key columns as
    ``int64`` ids in ``[0, span)``: equal ids exactly for equal keys, in
    the keys' lexicographic order (first column most significant).

    A signed integer column whose values :func:`dense_span` lets an index
    address directly becomes ``value - min``; any other column (floats,
    wide or unsigned integers, object columns) takes the inverse of one
    ``np.unique``.  The columns combine mixed-radix, ``ids * span +
    key``; when the next column could overflow ``int64`` the ids so far
    are renumbered densely first (equal composites stay equal, order is
    kept).
    """
    ids, span = None, 1
    for values in columns:
        key, key_span = _dense_key(values)
        if ids is None:
            ids, span = key, key_span
            continue
        if span > _MAX_COMBINED_CODE // key_span:
            uniques, ids = np.unique(ids, return_inverse=True)
            span = len(uniques)
        ids = ids * key_span + key
        span *= key_span
    return ids, span


def _dense_key(values: np.ndarray) -> tuple[np.ndarray, int]:
    """One key column as order-preserving ids in ``[0, span)``."""
    if values.dtype.kind in "ib":
        low, high = int(values.min()), int(values.max())
        if dense_span(low, high, len(values)):
            return values.astype(np.int64, copy=False) - low, high - low + 1
    uniques, inverse = np.unique(values, return_inverse=True)
    return inverse, len(uniques)
