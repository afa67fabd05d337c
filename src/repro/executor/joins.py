"""Low-level vectorized equi-join primitives.

These helpers compute the matching row-index pairs of an equi-join between
two key arrays without materializing a hash table in Python: both sides are
sorted once and matched with ``searchsorted``, which keeps the whole join in
numpy.  They are shared by the executor's hash / merge / index nested-loop
join operators and by the true-cardinality oracle.
"""

from __future__ import annotations

import numpy as np

#: Hard cap on the number of matches a single equi-join may materialize.
#: Joins beyond this are the Python-engine analogue of the paper's 1000 s
#: query timeout: the run is aborted and reported as timed out.
MAX_JOIN_RESULT_ROWS = 40_000_000


class JoinOverflowError(RuntimeError):
    """Raised when an equi-join would materialize more rows than the cap."""


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


def multi_key_equi_join(left_keys: list[np.ndarray],
                        right_keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Equi-join on one or more key columns (conjunction of equalities)."""
    if len(left_keys) != len(right_keys) or not left_keys:
        raise ValueError("both sides must provide the same, non-zero number of keys")
    if len(left_keys) == 1:
        return equi_join_indices(left_keys[0], right_keys[0])
    left_combined, right_combined = combine_key_pair(left_keys, right_keys)
    return equi_join_indices(left_combined, right_combined)


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
    """Exact number of matches of an equi-join without materializing them."""
    if len(left_keys) == 0 or len(right_keys) == 0:
        return 0
    left_vals, left_counts = np.unique(left_keys, return_counts=True)
    right_vals, right_counts = np.unique(right_keys, return_counts=True)
    # Match the two distinct-value lists.
    pos = np.searchsorted(right_vals, left_vals)
    pos_clipped = np.clip(pos, 0, len(right_vals) - 1)
    matches = right_vals[pos_clipped] == left_vals
    return int(np.sum(left_counts[matches] * right_counts[pos_clipped[matches]]))
