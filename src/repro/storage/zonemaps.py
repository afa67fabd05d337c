"""Per-block zone maps for block-partitioned columnar tables.

A loaded :class:`~repro.storage.table.DataTable` is logically partitioned
into fixed-size **blocks** of :data:`DEFAULT_BLOCK_SIZE` rows.  For every
``(column, block)`` pair a :class:`BlockZone` records the summary the scan
pruner needs:

* ``min_value`` / ``max_value`` over the block's *non-null* values
  (``None`` when the block holds no non-null value at all);
* ``null_count`` (``None`` for strings, ``NaN`` for floats);
* ``single_value`` -- the distinct-ness flag: every non-null value in the
  block is identical (true for constant runs and for clustered
  low-cardinality columns, and what lets ``!=`` prune).

:class:`TableZoneMaps` bundles the zones of every column and answers the
one question the :class:`~repro.executor.operators.Scan` operator asks:
*which blocks can possibly contain a row satisfying these predicates?*
(:meth:`TableZoneMaps.candidate_blocks`).  The answer is **conservative by
construction**: a block is only pruned when the zone summary *proves* no
row in it can satisfy the predicate; any predicate shape the pruner does
not understand keeps the block.  Null semantics follow the executor's
vectorized evaluation exactly: ``NaN``/``None`` never satisfy ``=``, ``<``,
``BETWEEN``, ``IN`` or prefix predicates, but *do* satisfy ``!=``.

See ARCHITECTURE.md ("Block-partitioned storage") for how pruning slots
into the scan -> prune -> filter dataflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.plan.expressions import (
    Between,
    Comparison,
    InList,
    IsNotNull,
    OrPredicate,
    Predicate,
    StringPrefix,
)

#: Default number of rows per storage block (a power of two near the size
#: where numpy kernel launch overhead stops dominating the per-row work).
DEFAULT_BLOCK_SIZE = 4096


@dataclass(frozen=True)
class BlockZone:
    """Zone-map summary of one column over one block of rows."""

    #: Smallest / largest non-null value in the block (``None`` when the
    #: block contains no non-null value).
    min_value: object
    max_value: object
    #: Number of null values (``NaN`` for floats, ``None`` for strings).
    null_count: int
    #: Rows in the block (the last block of a table may be short).
    num_rows: int
    #: Distinct-ness flag: all non-null values in the block are equal.
    single_value: bool

    @property
    def non_null_count(self) -> int:
        return self.num_rows - self.null_count


class TableZoneMaps:
    """Zone maps of every column of one table at a fixed block size."""

    __slots__ = ("block_size", "num_rows", "num_blocks", "columns",
                 "_vector_zones")

    def __init__(self, block_size: int, num_rows: int,
                 columns: dict[str, tuple[BlockZone, ...]]):
        self.block_size = block_size
        self.num_rows = num_rows
        self.num_blocks = _num_blocks(num_rows, block_size)
        self.columns = columns
        #: Lazily built per-column arrays for the vectorized numeric checks.
        self._vector_zones: dict[str, "_VectorZones | None"] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, columns: dict[str, np.ndarray],
              block_size: int = DEFAULT_BLOCK_SIZE) -> "TableZoneMaps":
        """Build zone maps for a column dict (all arrays the same length)."""
        if block_size <= 0:
            raise ValueError("block_size must be positive to build zone maps")
        num_rows = len(next(iter(columns.values()))) if columns else 0
        zones = {name: _column_zones(np.asarray(array), block_size)
                 for name, array in columns.items()}
        return cls(block_size=block_size, num_rows=num_rows, columns=zones)

    def block_bounds(self, block: int) -> tuple[int, int]:
        """The ``[start, stop)`` row range of ``block``."""
        start = block * self.block_size
        return start, min(start + self.block_size, self.num_rows)

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------
    def candidate_blocks(self, predicates, name_of) -> np.ndarray:
        """Boolean mask over blocks: True = the block must still be scanned.

        ``predicates`` is the conjunction of a scan's pushed-down filters;
        ``name_of`` maps each predicate's :class:`ColumnRef` to the column
        name under which the table stores it (bare for base tables,
        qualified for temporaries).  A block survives only if *every*
        conjunct can possibly be satisfied inside it.
        """
        mask = np.ones(self.num_blocks, dtype=bool)
        for predicate in predicates:
            vector = self._vector_maybe(predicate, name_of)
            if vector is not None:
                mask &= vector
                continue
            for block in np.nonzero(mask)[0]:
                if not self._maybe(predicate, int(block), name_of):
                    mask[block] = False
        return mask

    def pruned_fraction(self, predicates, name_of) -> float:
        """Fraction of blocks the given conjunction prunes (0.0 when empty)."""
        if self.num_blocks == 0:
            return 0.0
        mask = self.candidate_blocks(predicates, name_of)
        return 1.0 - float(mask.sum()) / self.num_blocks

    # ------------------------------------------------------------------
    # Vectorized zone tests for numeric columns (the hot path: one numpy
    # expression over all blocks instead of a Python loop per block)
    # ------------------------------------------------------------------
    def _vectors_for(self, name: str) -> "_VectorZones | None":
        if name not in self._vector_zones:
            zones = self.columns.get(name)
            self._vector_zones[name] = (
                _VectorZones.build(zones)
                if zones is not None and all(
                    not isinstance(z.min_value, str) for z in zones)
                else None)
        return self._vector_zones[name]

    def _vector_maybe(self, predicate: Predicate, name_of) -> np.ndarray | None:
        """Vectorized block mask for ``predicate``, or None to use the loop."""
        if not isinstance(predicate, (Comparison, Between, InList, IsNotNull)):
            return None
        vectors = self._vectors_for(name_of(predicate.column))
        if vectors is None:
            return None
        try:
            return vectors.maybe(predicate)
        except TypeError:
            # Mixed-type literal (e.g. string against a numeric zone): fall
            # back to the per-block path, which keeps the block.
            return None

    # ------------------------------------------------------------------
    # Per-predicate zone tests (conservative: unknown shapes keep the block)
    # ------------------------------------------------------------------
    def _maybe(self, predicate: Predicate, block: int, name_of) -> bool:
        try:
            if isinstance(predicate, OrPredicate):
                return any(self._maybe(child, block, name_of)
                           for child in predicate.children)
            if isinstance(predicate, (Comparison, Between, InList, IsNotNull,
                                      StringPrefix)):
                zones = self.columns.get(name_of(predicate.column))
                if zones is None:
                    return True
                return _zone_maybe(zones[block], predicate)
        except TypeError:
            # Mixed-type comparison (e.g. a string literal against a numeric
            # zone): the vectorized evaluation decides, we keep the block.
            return True
        return True


def _zone_maybe(zone: BlockZone, predicate: Predicate) -> bool:
    """Can any row of ``zone``'s block satisfy ``predicate``?"""
    if isinstance(predicate, IsNotNull):
        return zone.non_null_count > 0
    if isinstance(predicate, Comparison):
        return _comparison_maybe(zone, predicate.op, predicate.value)
    if isinstance(predicate, Between):
        if _lt(predicate.high, predicate.low):  # unsatisfiable range
            return False
        return (zone.non_null_count > 0
                and not _lt(zone.max_value, predicate.low)
                and not _lt(predicate.high, zone.min_value))
    if isinstance(predicate, InList):
        return zone.non_null_count > 0 and any(
            not _lt(value, zone.min_value) and not _lt(zone.max_value, value)
            for value in predicate.values)
    if isinstance(predicate, StringPrefix):
        # s.startswith(p)  =>  s >= p, so max < p proves no match; and
        # min <= s  =>  min[:len(p)] <= s[:len(p)] == p, so a truncated
        # minimum above p proves no match either.
        if zone.non_null_count == 0:
            return False
        if not isinstance(zone.min_value, str) or not isinstance(zone.max_value, str):
            return True
        prefix = predicate.prefix
        return (zone.max_value >= prefix
                and zone.min_value[:len(prefix)] <= prefix)
    return True


def _comparison_maybe(zone: BlockZone, op: str, value: object) -> bool:
    if op == "!=":
        # Nulls satisfy ``!=`` under the executor's semantics (NaN != v and
        # None != v are both True), so only a fully-single-valued,
        # null-free block equal to the literal can be pruned.
        if zone.null_count > 0:
            return True
        return zone.non_null_count > 0 and not (
            zone.single_value and _eq(zone.min_value, value))
    if zone.non_null_count == 0:
        return False
    if op == "=":
        return not _lt(value, zone.min_value) and not _lt(zone.max_value, value)
    if op == "<":
        return _lt(zone.min_value, value)
    if op == "<=":
        return not _lt(value, zone.min_value)
    if op == ">":
        return _lt(value, zone.max_value)
    # op == ">="
    return not _lt(zone.max_value, value)


def _lt(a, b) -> bool:
    """``a < b`` with NaN behaving like the vectorized kernels (never True)."""
    result = a < b
    return bool(result)


def _eq(a, b) -> bool:
    return bool(a == b)


class _VectorZones:
    """Array-of-structs view of one numeric column's zones.

    ``mins``/``maxs`` are NaN for blocks with no non-null value, so every
    range comparison is automatically False there (exactly the scalar
    rules).  Integer columns keep ``int64`` bounds — converting to float
    would lose precision above 2**53 and could prune a matching block.
    """

    __slots__ = ("mins", "maxs", "null_counts", "num_rows", "single")

    def __init__(self, mins, maxs, null_counts, num_rows, single):
        self.mins = mins
        self.maxs = maxs
        self.null_counts = null_counts
        self.num_rows = num_rows
        self.single = single

    @classmethod
    def build(cls, zones: tuple[BlockZone, ...]) -> "_VectorZones":
        min_values = [z.min_value for z in zones]
        max_values = [z.max_value for z in zones]
        if any(v is None for v in min_values) or any(
                isinstance(v, float) for v in min_values):
            nan = float("nan")
            mins = np.array([nan if v is None else float(v) for v in min_values])
            maxs = np.array([nan if v is None else float(v) for v in max_values])
        else:
            mins = np.array(min_values, dtype=np.int64)
            maxs = np.array(max_values, dtype=np.int64)
        return cls(mins, maxs,
                   np.array([z.null_count for z in zones], dtype=np.int64),
                   np.array([z.num_rows for z in zones], dtype=np.int64),
                   np.array([z.single_value for z in zones], dtype=bool))

    def maybe(self, predicate: Predicate) -> np.ndarray:
        """Block mask mirroring :func:`_zone_maybe` for supported shapes."""
        if isinstance(predicate, IsNotNull):
            return self.null_counts < self.num_rows
        if isinstance(predicate, Between):
            if _lt(predicate.high, predicate.low):
                return np.zeros(len(self.mins), dtype=bool)
            return (self.maxs >= predicate.low) & (self.mins <= predicate.high)
        if isinstance(predicate, InList):
            mask = np.zeros(len(self.mins), dtype=bool)
            for value in predicate.values:
                mask |= (self.mins <= value) & (self.maxs >= value)
            return mask
        op, value = predicate.op, predicate.value
        if op == "=":
            return (self.mins <= value) & (self.maxs >= value)
        if op == "!=":
            return (self.null_counts > 0) | (
                ~np.isnan(self.mins.astype(np.float64, copy=False))
                & ~(self.single & (self.mins == value)))
        if op == "<":
            return self.mins < value
        if op == "<=":
            return self.mins <= value
        if op == ">":
            return self.maxs > value
        return self.maxs >= value


# ----------------------------------------------------------------------
# Zone construction
# ----------------------------------------------------------------------
def _num_blocks(num_rows: int, block_size: int) -> int:
    return -(-num_rows // block_size) if num_rows else 0


def _column_zones(array: np.ndarray,
                  block_size: int) -> tuple[BlockZone, ...]:
    zones = []
    for start in range(0, len(array), block_size):
        block = array[start:start + block_size]
        zones.append(_block_zone(block))
    return tuple(zones)


def _block_zone(block: np.ndarray) -> BlockZone:
    num_rows = len(block)
    if block.dtype == object:
        non_null = [v for v in block if v is not None]
        null_count = num_rows - len(non_null)
        if not non_null:
            return BlockZone(None, None, null_count, num_rows, False)
        lo, hi = min(non_null), max(non_null)
        return BlockZone(lo, hi, null_count, num_rows,
                         single_value=_eq(lo, hi))
    if block.dtype.kind == "f":
        null_mask = np.isnan(block)
        non_null = block[~null_mask]
        null_count = int(null_mask.sum())
        if len(non_null) == 0:
            return BlockZone(None, None, null_count, num_rows, False)
        lo, hi = float(non_null.min()), float(non_null.max())
        return BlockZone(lo, hi, null_count, num_rows, single_value=lo == hi)
    if num_rows == 0:
        return BlockZone(None, None, 0, 0, False)
    lo, hi = block.min().item(), block.max().item()
    return BlockZone(lo, hi, 0, num_rows, single_value=lo == hi)
