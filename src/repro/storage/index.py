"""Sorted indexes: the engine's one structure for finding equi-join matches.

This is the stand-in for the B+tree indexes the paper builds on every primary
key (and optionally every foreign key) column of the JOB / TPC-H / DSB
schemas.  The database keeps one per indexed base column for index
nested-loop joins, and a hash join builds a transient one over its build
side (:func:`repro.executor.joins.equi_join_matches`).  An index finds each
probe key's run of matching rows in one of three layouts, chosen from the
data:

* **dense unique** -- signed integer keys whose span ``max - min + 1`` is at
  most about four times their number (:func:`dense_span`; every generated
  primary key), none repeated.  A slot table holds the row id of each
  ``key - min`` (``-1`` where no row has it) plus one empty slot that takes
  every out-of-range probe, so one gather answers a probe.
* **dense duplicate** -- dense keys that repeat (every generated foreign
  key).  A CSR ``starts`` array over ``key - min`` gives each key's run with
  two gathers; the row order comes from the same slots with one integer sort
  (:func:`_dense_order`).
* **sorted** -- every other key column keeps the sorted keys, and a batch of
  probe keys is answered with two ``searchsorted`` calls, the vectorized
  analogue of repeated B+tree descents.  A probe batch of another dtype kind
  than a dense index's keys takes this path over the keys rebuilt from the
  dense layout.

All three return the same matches in the same order: probe-major, and the
rows of one probe key in the stable sort order of the indexed column.  A
probe returns them as :class:`Matches`: the runs and their total, checked
against the join cap at once, with each side -- the probe positions and the
matching row ids -- expanded only when a consumer asks for it
(:meth:`SortedIndex.matches`); :meth:`SortedIndex.lookup_batch` expands both.
A scalar aggregate asks for neither: :meth:`Matches.weights` reads each
row's number of matches off the runs.

A NULL key never matches, by the engine's one NULL rule
(:func:`repro.storage.dictionary.null_mask`: ``NaN``, or ``None`` in an
object column).  The index leaves the rows with a NULL key out
(:func:`drop_null_rows`), and a NULL probe key matches nothing.  Integer
keys cannot be NULL and are never checked.
"""

from __future__ import annotations

import numpy as np

from repro.storage.dictionary import null_mask


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


def drop_null_rows(keys: list[np.ndarray]
                   ) -> tuple[list[np.ndarray], np.ndarray | None]:
    """``keys`` without the rows that hold a NULL in any key column, and the
    positions of the rows kept (``None`` when every row is kept).  Only
    float and object columns can hold a NULL; integer ones are not read."""
    nullable = [key for key in keys if key.dtype.kind in "fO"]
    if not nullable:
        return keys, None
    kept = ~np.logical_or.reduce([null_mask(key) for key in nullable])
    if kept.all():
        return keys, None
    rows = np.flatnonzero(kept)
    return [key[rows] for key in keys], rows


class Matches:
    """The matches of one equi-join or index probe: their number at once,
    and each side's index vector only when a consumer asks for it.

    ``probe_positions()`` holds, per match, the position of the probe (left)
    row and ``row_ids()`` the matching build (right) row; the pairs are
    probe-major.  Each side is given as an array, or as a zero-argument
    callable that computes it on first request, once.  So a join whose
    output keeps neither side (``count(*)``) never allocates a pair, and
    one that keeps one side expands one vector.  The producer checks
    ``total`` against :data:`~repro.executor.joins.MAX_JOIN_RESULT_ROWS`
    before anything is expanded, whatever is asked for later.

    :meth:`weights` is the factorized form a scalar aggregate reads
    instead of the pairs: per row of each side, how many matches it is in.
    A producer that knows its runs passes one callable per side (taking
    that side's row count) that reads them without expanding a pair; the
    default counts the expanded pairs.
    """

    __slots__ = ("total", "_probe_positions", "_row_ids",
                 "_probe_weights", "_build_weights")

    def __init__(self, total: int, probe_positions, row_ids,
                 probe_weights=None, build_weights=None):
        self.total = total
        self._probe_positions = probe_positions
        self._row_ids = row_ids
        self._probe_weights = probe_weights
        self._build_weights = build_weights

    @classmethod
    def empty(cls) -> "Matches":
        """No matches."""
        return cls(0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    def probe_positions(self) -> np.ndarray:
        """Per match, the position of its probe key (``int64``)."""
        if callable(self._probe_positions):
            self._probe_positions = self._probe_positions()
        return self._probe_positions

    def row_ids(self) -> np.ndarray:
        """Per match, the row id it found on the build side (``int64``)."""
        if callable(self._row_ids):
            self._row_ids = self._row_ids()
        return self._row_ids

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(probe_positions(), row_ids())``."""
        return self.probe_positions(), self.row_ids()

    def probe_weights(self, n_left: int) -> np.ndarray:
        """Per probe row (``n_left`` of them), its number of matches:
        ``np.bincount(probe_positions(), minlength=n_left)``, as a new
        ``int64`` array."""
        if self._probe_weights is None:
            return np.bincount(self.probe_positions(), minlength=n_left)
        return self._probe_weights(n_left)

    def build_weights(self, n_right: int) -> np.ndarray:
        """Per build row (``n_right`` of them), its number of matches:
        ``np.bincount(row_ids(), minlength=n_right)``, as a new ``int64``
        array."""
        if self._build_weights is None:
            return np.bincount(self.row_ids(), minlength=n_right)
        return self._build_weights(n_right)

    def weights(self, n_left: int, n_right: int
                ) -> tuple[np.ndarray, np.ndarray]:
        """``(probe_weights(n_left), build_weights(n_right))``."""
        return self.probe_weights(n_left), self.build_weights(n_right)

    def select(self, keep: np.ndarray) -> "Matches":
        """The matches at the ascending pair positions ``keep``: the build
        side selected now (it was expanded to choose them), the probe side
        expanded and selected only when asked for.  The weights count the
        selected pairs."""
        probe_positions = self._probe_positions
        return Matches(
            len(keep),
            lambda: (probe_positions() if callable(probe_positions)
                     else probe_positions)[keep],
            self.row_ids()[keep])

    def remap(self, probe_rows: np.ndarray | None,
              build_rows: np.ndarray | None) -> "Matches":
        """These matches with each side's positions looked up in
        ``probe_rows`` / ``build_rows`` (``None``: left as they are) when
        that side is asked for: the rows a NULL filter kept."""
        return Matches(
            self.total,
            self._probe_positions if probe_rows is None
            else lambda: probe_rows[self.probe_positions()],
            self._row_ids if build_rows is None
            else lambda: build_rows[self.row_ids()],
            self._probe_weights if probe_rows is None
            else lambda rows: _scatter(self.probe_weights(len(probe_rows)),
                                       probe_rows, rows),
            self._build_weights if build_rows is None
            else lambda rows: _scatter(self.build_weights(len(build_rows)),
                                       build_rows, rows))


def _scatter(values: np.ndarray, positions: np.ndarray, rows: int
             ) -> np.ndarray:
    """``rows`` zeros with ``values`` placed at ``positions``."""
    out = np.zeros(rows, dtype=np.int64)
    out[positions] = values
    return out


class SortedIndex:
    """A sorted secondary index over one column of a table.

    A dense unique index keeps only its slot table ``_slots``.  Every other
    index lists its row ids in the stable sort order of the keys
    (``_row_ids``): a dense duplicate one derives them from its slots, a
    sorted one takes a stable ``argsort``.
    """

    def __init__(self, table_name: str, column: str, values: np.ndarray):
        self.table_name = table_name
        self.column = column
        (values,), kept = drop_null_rows([values])
        self.num_keys = len(values)
        self._dtype = values.dtype
        self._slots = self._starts = self._sorted_values = None
        span = self._span = 0
        if values.dtype.kind == "i" and len(values):
            self._low = int(values.min())
            span = self._span = dense_span(self._low, int(values.max()), len(values))
        if span:
            slots = values.astype(np.int64, copy=False) - self._low
            table = np.full(span + 1, -1, dtype=np.int64)
            table[slots] = np.arange(len(values))
            if np.count_nonzero(table >= 0) == len(values):
                self._slots = table
                return
            # starts[s]..starts[s + 1] is the run of key low + s; the extra
            # slot ``span`` is empty and takes every out-of-range probe.
            self._starts = np.zeros(
                span + 2, dtype=np.int32 if len(values) < 2 ** 31 else np.int64)
            np.cumsum(np.bincount(slots, minlength=span),
                      dtype=self._starts.dtype, out=self._starts[1:span + 1])
            self._starts[-1] = len(values)
            self._row_ids = _dense_order(slots, span)
        else:
            order = np.argsort(values, kind="stable")
            self._sorted_values = values[order]
            self._row_ids = (order if kept is None else kept[order]).astype(
                np.int64, copy=False)

    def lookup(self, key) -> np.ndarray:
        """Row ids of all rows whose key equals ``key``."""
        return self.matches(np.array([key])).row_ids()

    def lookup_batch(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Probe the index with a batch of keys.

        Returns ``(probe_positions, row_ids)`` where ``probe_positions[i]`` is
        the position in ``keys`` that matched and ``row_ids[i]`` is the
        matching row in the indexed table.  A probe key with *k* matches
        contributes *k* entries, in the indexed column's stable sort order;
        the entries are probe-major.
        """
        return self.matches(keys).pairs()

    def matches(self, keys: np.ndarray) -> Matches:
        """The matches of a batch of probe keys, as runs: each key's run
        of rows, expanded into :meth:`lookup_batch`'s vectors only for the
        side a consumer asks for.

        Raises :class:`~repro.executor.joins.JoinOverflowError` when there
        are more matches than the cap, before any is allocated.
        """
        from repro.executor.joins import check_match_count

        if keys.dtype == object:  # a NaN probe finds no run; None cannot compare
            (valid_keys,), valid = drop_null_rows([keys])
            if valid is not None:
                return self.matches(valid_keys).remap(valid, None)
        if self._sorted_values is None and keys.dtype.kind == "i":
            slots = key_slots(keys, self._low, self._span)
            if self._slots is not None:
                # Runs of length 0 or 1: the slot holds the row id itself.
                rows = self._slots.take(slots)
                hit = rows >= 0
                total = int(np.count_nonzero(hit))
                check_match_count(total)
                return Matches(
                    total, lambda: np.flatnonzero(hit), lambda: rows[hit],
                    lambda _: hit.astype(np.int64),
                    lambda n: np.bincount(rows[hit], minlength=n))
            lo = self._starts.take(slots)
            counts = self._starts.take(slots + 1) - lo
            row_ids = self._row_ids
        else:
            sorted_values, row_ids = self._sorted()
            lo = np.searchsorted(sorted_values, keys, side="left")
            counts = np.searchsorted(sorted_values, keys, side="right") - lo
        total = int(counts.sum())
        if total == 0:
            return Matches.empty()
        check_match_count(total)
        return Matches(
            total,
            lambda: np.repeat(np.arange(len(counts), dtype=np.int64), counts),
            lambda: row_ids.take(_run_positions(lo, counts, total)),
            lambda _: counts.astype(np.int64),
            lambda n: _scatter(_run_coverage(lo, counts, len(row_ids)),
                               row_ids, n))

    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """The indexed keys in sorted order and their row ids, rebuilt from
        the slots of a dense index."""
        if self._sorted_values is not None:
            return self._sorted_values, self._row_ids
        if self._slots is not None:
            occupied = np.flatnonzero(self._slots[:-1] >= 0)
            return (occupied + self._low).astype(self._dtype), self._slots[occupied]
        keys = np.arange(self._low, self._low + self._span, dtype=self._dtype)
        return np.repeat(keys, np.diff(self._starts[:-1])), self._row_ids

    def __repr__(self) -> str:
        return f"SortedIndex({self.table_name}.{self.column}, keys={self.num_keys})"


def _dense_order(slots: np.ndarray, span: int) -> np.ndarray:
    """Row ids in stable ``slots`` order, for slots in ``[0, span)``.

    Sorts the composite ``slot * n + row``, whose order is the stable order
    of the slots, and keeps its row part; when the composite could overflow
    ``int64`` it falls back to a stable argsort.
    """
    rows = len(slots)
    if span * rows >= 2 ** 63:
        return np.argsort(slots, kind="stable")
    composite = slots * rows
    composite += np.arange(rows)
    composite.sort()
    return np.remainder(composite, rows, out=composite)


def _run_positions(lo: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """The positions ``total`` runs cover, run after run: ``lo[i]``,
    ``lo[i] + 1``, ... for ``counts[i]`` entries each."""
    # Positions are the running sum of steps: +1 inside a run, and at each
    # run's first output the jump from the previous run's last position.
    # Summing in place keeps one full-length array alive.
    runs = np.flatnonzero(counts)
    run_lo = lo[runs].astype(np.int64)
    run_counts = counts[runs]
    jumps = run_lo.copy()
    jumps[1:] -= run_lo[:-1] + run_counts[:-1] - 1
    positions = np.ones(total, dtype=np.int64)
    positions[np.cumsum(run_counts) - run_counts] = jumps
    return np.cumsum(positions, out=positions)


def _run_coverage(lo: np.ndarray, counts: np.ndarray, positions: int
                  ) -> np.ndarray:
    """How many of the runs ``lo[i]``, ..., ``lo[i] + counts[i] - 1`` cover
    each of ``positions`` positions (``int64``): a difference array, +1 at
    each run's start and -1 past its end, summed."""
    runs = np.flatnonzero(counts)
    starts = lo[runs].astype(np.int64)
    edges = np.bincount(starts, minlength=positions + 1)
    edges -= np.bincount(starts + counts[runs], minlength=positions + 1)
    return np.cumsum(edges[:positions])
