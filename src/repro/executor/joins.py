"""Low-level vectorized equi-join primitives.

These helpers find the matches of an equi-join between two key arrays,
keeping the whole join in numpy.  A hash join (:func:`equi_join_matches`)
builds a transient :class:`~repro.storage.index.SortedIndex` over its build
side and probes it, exactly as an index nested-loop join probes a base
table's index, so one structure finds every join's matches.  The
true-cardinality oracle counts a join's matches with
:func:`join_result_size` (multi-key via :func:`combine_key_pair`) instead of
materializing it; a count needs no row order, so it matches distinct values
directly.

Every join finds, for each probe key, the run of matching build rows as a
start ``lo`` and a length ``count``, and returns them as a
:class:`~repro.storage.index.Matches`: the runs and their ``total``, checked
against :data:`MAX_JOIN_RESULT_ROWS` before anything is allocated.  The
operators expand only the index vectors their output keeps;
:func:`equi_join_indices` expands both, as probe-major index pairs.

A NULL key matches nothing, by the engine's one NULL rule
(:func:`repro.storage.dictionary.null_mask`): the index leaves NULL keys
out, a multi-key join drops the rows with a NULL in any key column
(:func:`~repro.storage.index.drop_null_rows`) before it encodes them and
maps the positions back when a side is expanded, and a count skips them.
"""

from __future__ import annotations

import numpy as np

from repro.storage.index import Matches, SortedIndex, drop_null_rows

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
    return equi_join_matches(*combine_key_pair(left_keys, right_keys)).remap(
        left_rows, right_rows)


#: Largest composite code value combine_key_pair lets the running encoding
#: reach before it re-compresses the codes (conservatively half of int64).
_MAX_COMBINED_CODE = 2 ** 62


def combine_key_pair(left_keys: list[np.ndarray],
                     right_keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Encode multi-column keys of both join sides into one shared code space.

    Both sides of every key column are uniquified *together*, so equal values
    on the two sides receive the same code and the composite codes are
    directly comparable.

    The running ``code * span + inverse`` encoding can overflow int64 when
    the per-column distinct-value counts multiply up (many key columns, or a
    few very high-cardinality ones).  Whenever the next extension would
    exceed the safe range, the combined codes of *both* sides are
    re-uniquified into a dense range first -- equal composites stay equal, so
    the join semantics are unchanged while the magnitude resets to at most
    the number of distinct composites seen so far.
    """
    n_left = len(left_keys[0])
    left_combined = np.zeros(n_left, dtype=np.int64)
    right_combined = np.zeros(len(right_keys[0]), dtype=np.int64)
    for left, right in zip(left_keys, right_keys):
        merged = np.concatenate([left, right])
        _, inverse = np.unique(merged, return_inverse=True)
        span = int(inverse.max()) + 1 if len(inverse) else 1
        current_max = 0
        if len(left_combined):
            current_max = max(current_max, int(left_combined.max()))
        if len(right_combined):
            current_max = max(current_max, int(right_combined.max()))
        if current_max and span > _MAX_COMBINED_CODE // (current_max + 1):
            both = np.concatenate([left_combined, right_combined])
            _, dense = np.unique(both, return_inverse=True)
            left_combined = dense[:n_left].astype(np.int64)
            right_combined = dense[n_left:].astype(np.int64)
        left_combined = left_combined * span + inverse[:n_left]
        right_combined = right_combined * span + inverse[n_left:]
    return left_combined, right_combined


def join_result_size(left_keys: np.ndarray, right_keys: np.ndarray) -> int:
    """Exact number of matches of an equi-join without materializing them;
    NULL keys match nothing."""
    (left_keys,), _ = drop_null_rows([left_keys])
    (right_keys,), _ = drop_null_rows([right_keys])
    if len(left_keys) == 0 or len(right_keys) == 0:
        return 0
    left_vals, left_counts = np.unique(left_keys, return_counts=True)
    right_vals, right_counts = np.unique(right_keys, return_counts=True)
    # Match the two distinct-value lists.
    pos = np.searchsorted(right_vals, left_vals)
    pos_clipped = np.clip(pos, 0, len(right_vals) - 1)
    matches = right_vals[pos_clipped] == left_vals
    return int(np.sum(left_counts[matches] * right_counts[pos_clipped[matches]]))


def multi_key_result_size(left_keys: list[np.ndarray],
                          right_keys: list[np.ndarray]) -> int:
    """Exact number of matches of :func:`multi_key_matches`."""
    if len(left_keys) == 1:
        return join_result_size(left_keys[0], right_keys[0])
    return join_result_size(*combine_key_pair(drop_null_rows(left_keys)[0],
                                              drop_null_rows(right_keys)[0]))
