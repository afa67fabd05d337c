"""Low-level vectorized equi-join primitives.

These helpers compute the matching row-index pairs of an equi-join between
two key arrays without materializing a hash table in Python, which keeps the
whole join in numpy.  They are shared by the executor's hash / merge / index
nested-loop join operators, the sorted indexes and the true-cardinality
oracle.

Every join finds, for each probe key, the run of matching build rows as a
start ``lo`` and a length ``count``, and :func:`expand_matches` flattens the
runs into index pairs.  Integer build keys whose value span is small
against their number (:func:`dense_span`) are located by direct addressing
on ``key - min``; everything else is sorted once and located with
``searchsorted``.
"""

from __future__ import annotations

import numpy as np

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


def dense_span(low: int, high: int, rows: int) -> int:
    """``high - low + 1`` when ``rows`` integer keys between ``low`` and
    ``high`` are dense enough to address directly, else 0."""
    span = high - low + 1
    return span if span <= 4 * rows + 64 else 0


def key_slots(keys: np.ndarray, low: int, span: int) -> np.ndarray:
    """Each key's slot ``key - low``, or ``span`` for a key outside
    ``[low, low + span)``.

    The subtraction wraps for keys far from ``low``; viewed unsigned, those
    and the keys below ``low`` all land at or beyond ``span``.
    """
    slots = (keys.astype(np.int64, copy=False) - low).view(np.uint64)
    return np.minimum(slots, span, out=slots).view(np.int64)


def expand_matches(lo: np.ndarray, counts: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Flatten match runs into ``(probe_positions, build_positions)``.

    Probe ``i`` matches the ``counts[i]`` consecutive build positions from
    ``lo[i]``; the pairs come out probe-major.  More than
    :data:`MAX_JOIN_RESULT_ROWS` matches raise :class:`JoinOverflowError`
    before any of them is allocated.
    """
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    check_match_count(total)
    probe_positions = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    # Build positions are the running sum of steps: +1 inside a run, and at
    # each run's first output the jump from the previous run's last
    # position.  Summing in place keeps only two full-length arrays alive.
    runs = np.flatnonzero(counts)
    run_lo = lo[runs].astype(np.int64)
    run_counts = counts[runs]
    jumps = run_lo.copy()
    jumps[1:] -= run_lo[:-1] + run_counts[:-1] - 1
    build_positions = np.ones(total, dtype=np.int64)
    build_positions[np.cumsum(run_counts) - run_counts] = jumps
    np.cumsum(build_positions, out=build_positions)
    return probe_positions, build_positions


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

    if left_keys.dtype.kind == "i" and right_keys.dtype.kind == "i":
        low = int(right_keys.min())
        span = dense_span(low, int(right_keys.max()), len(right_keys))
        if span:
            # Direct-address table: slot[key - low] is the right row holding
            # that key, -1 for none, and slot[span] catches out-of-range keys.
            slot = np.full(span + 1, -1, dtype=np.int64)
            slot[right_keys - low] = np.arange(len(right_keys), dtype=np.int64)
            if np.count_nonzero(slot >= 0) == len(right_keys):  # unique keys
                rows = slot.take(key_slots(left_keys, low, span))
                left_idx = np.flatnonzero(rows >= 0)
                check_match_count(len(left_idx))
                return left_idx, rows[left_idx]

    # Sort the right side once, then locate the matching run of every left key.
    order = np.argsort(right_keys, kind="stable")
    sorted_keys = right_keys[order]
    lo = np.searchsorted(sorted_keys, left_keys, side="left")
    counts = np.searchsorted(sorted_keys, left_keys, side="right") - lo
    left_idx, sorted_positions = expand_matches(lo, counts)
    return left_idx, order[sorted_positions]


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
