"""Zone-map correctness tests: pruning is conservative, and sharp.

The single invariant the block-pruning layer must uphold is
**conservativeness**: a block containing *any* row that satisfies a
predicate must survive :meth:`TableZoneMaps.candidate_blocks`.  The
property-style sweep below checks it over random arrays of every supported
dtype (ints, floats with NaN, strings with None), random block sizes
(including size 1 and single-value blocks), and every predicate shape the
pruner understands — by comparing against the vectorized evaluation
itself.  The flip side (unsatisfiable predicates prune *everything*) and
the executor-level guarantee (a pruned Scan emits the identical row-id
vector) are covered separately.
"""

import numpy as np
import pytest

from repro.plan.expressions import (
    Between,
    ColumnRef,
    Comparison,
    InList,
    IsNotNull,
    OrPredicate,
    StringContains,
    StringPrefix,
)
from repro.storage.table import DataTable
from repro.storage.zonemaps import TableZoneMaps

REF = ColumnRef("t", "c")


def _zone_maps(values: np.ndarray, block_size: int) -> TableZoneMaps:
    return TableZoneMaps.build({"c": values}, block_size)


def _surviving_rows(zone_maps: TableZoneMaps, predicates) -> set[int]:
    """Row ids inside blocks the pruner keeps."""
    mask = zone_maps.candidate_blocks(predicates, lambda ref: ref.column)
    rows: set[int] = set()
    for block in np.nonzero(mask)[0]:
        start, stop = zone_maps.block_bounds(int(block))
        rows.update(range(start, stop))
    return rows


def _matching_rows(values: np.ndarray, predicates) -> set[int]:
    mask = predicates[0].evaluate(lambda ref: values)
    for pred in predicates[1:]:
        mask = mask & pred.evaluate(lambda ref: values)
    return set(np.nonzero(mask)[0].tolist())


def assert_conservative(values: np.ndarray, predicates, block_size: int):
    zone_maps = _zone_maps(values, block_size)
    missed = _matching_rows(values, predicates) - _surviving_rows(
        zone_maps, predicates)
    assert not missed, (
        f"pruning dropped qualifying rows {sorted(missed)[:5]} for "
        f"{predicates} at block_size={block_size}")


# ----------------------------------------------------------------------
# Random data generators per dtype
# ----------------------------------------------------------------------
def _random_ints(rng, n):
    return rng.integers(-50, 50, n)


def _random_floats(rng, n):
    values = rng.normal(0.0, 30.0, n)
    values[rng.random(n) < 0.15] = np.nan
    return values


def _random_strings(rng, n):
    pool = np.array([f"s_{i:03d}" for i in range(40)] + [None] * 6,
                    dtype=object)
    return rng.choice(pool, n)


def _random_predicates(rng, values):
    """Sample predicate shapes valid for the dtype of ``values``."""
    non_null = [v for v in values
                if v is not None and not (isinstance(v, float) and np.isnan(v))]
    preds = [IsNotNull(REF)]
    if values.dtype == object:
        strings = [v for v in non_null if isinstance(v, str)] or ["s_000"]
        pick = lambda: strings[int(rng.integers(len(strings)))]
        preds += [
            Comparison(REF, "=", pick()),
            Comparison(REF, "!=", pick()),
            InList(REF, (pick(), pick(), "zz_missing")),
            StringPrefix(REF, pick()[:int(rng.integers(1, 4))]),
            StringContains(REF, pick()[2:4]),
            OrPredicate((Comparison(REF, "=", pick()),
                         StringPrefix(REF, pick()[:2]))),
        ]
    else:
        lo, hi = float(rng.uniform(-60, 40)), float(rng.uniform(-40, 60))
        point = (int(rng.integers(-55, 55)) if values.dtype.kind == "i"
                 else float(rng.uniform(-60, 60)))
        preds += [
            Comparison(REF, str(rng.choice(["=", "!=", "<", "<=", ">", ">="])),
                       point),
            Between(REF, min(lo, hi), max(lo, hi)),
            InList(REF, (point, point + 1, point - 17)),
            OrPredicate((Comparison(REF, "<", lo),
                         Comparison(REF, ">", hi))),
        ]
    count = int(rng.integers(1, 3))
    picked = rng.choice(len(preds), size=min(count, len(preds)), replace=False)
    return tuple(preds[int(i)] for i in picked)


class TestConservativeness:
    @pytest.mark.parametrize("make_values", [
        _random_ints, _random_floats, _random_strings,
    ], ids=["int", "float-nan", "string-null"])
    def test_pruning_never_drops_qualifying_rows(self, make_values):
        rng = np.random.default_rng(20260729)
        for trial in range(60):
            n = int(rng.integers(1, 400))
            values = make_values(rng, n)
            block_size = int(rng.choice([1, 3, 16, 64, 128, 1000]))
            predicates = _random_predicates(rng, values)
            assert_conservative(values, predicates, block_size)

    def test_single_value_blocks(self):
        values = np.repeat(np.array([7, 7, 7, 9], dtype=np.int64), 8)
        zone_maps = _zone_maps(values, 8)
        lookup = lambda ref: ref.column
        # "!=" prunes the constant blocks equal to the literal (distinct-ness
        # flag) but keeps the others; "=" does the reverse.
        ne = zone_maps.candidate_blocks((Comparison(REF, "!=", 7),), lookup)
        assert list(ne) == [False, False, False, True]
        eq = zone_maps.candidate_blocks((Comparison(REF, "=", 9),), lookup)
        assert list(eq) == [False, False, False, True]

    def test_all_null_blocks(self):
        values = np.concatenate([np.full(8, np.nan), np.arange(8.0)])
        zone_maps = _zone_maps(values, 8)
        lookup = lambda ref: ref.column
        not_null = zone_maps.candidate_blocks((IsNotNull(REF),), lookup)
        assert list(not_null) == [False, True]
        # NaN != literal is True, so the all-NaN block must survive "!=".
        assert_conservative(values, (Comparison(REF, "!=", 3.0),), 8)
        eq = zone_maps.candidate_blocks((Comparison(REF, "=", 3.0),), lookup)
        assert list(eq) == [False, True]


class TestUnsatisfiablePredicates:
    def test_everything_pruned(self):
        values = np.arange(100, dtype=np.int64)
        zone_maps = _zone_maps(values, 16)
        lookup = lambda ref: ref.column
        unsatisfiable = [
            (Comparison(REF, "=", 1000),),
            (Comparison(REF, "<", -1),),
            (Between(REF, 60, 40),),                      # inverted range
            (InList(REF, (-5, 500)),),
            (Between(REF, 0, 10), Comparison(REF, ">", 50)),  # contradiction
        ]
        for predicates in unsatisfiable:
            mask = zone_maps.candidate_blocks(predicates, lookup)
            assert not mask.any(), predicates

    def test_string_prefix_outside_range_pruned(self):
        values = np.array([f"m_{i:02d}" for i in range(64)], dtype=object)
        zone_maps = _zone_maps(values, 16)
        lookup = lambda ref: ref.column
        mask = zone_maps.candidate_blocks((StringPrefix(REF, "zz"),), lookup)
        assert not mask.any()
        mask = zone_maps.candidate_blocks((StringPrefix(REF, "a"),), lookup)
        assert not mask.any()


class TestScanEquivalence:
    def test_pruned_scan_emits_identical_row_ids(self, tiny_schema):
        """End to end: the Scan operator's selection vector is bit-identical
        across block sizes (pruning on, off, tiny blocks)."""
        from tests.conftest import build_tiny_database

        from repro.executor.chunk import MaterializationStats
        from repro.executor.operators import ExecContext, Scan
        from repro.plan.logical import RelationRef
        from repro.plan.physical import ScanNode

        # ``ci.id`` is clustered (sequential), so small blocks really prune.
        filters = (Comparison(ColumnRef("ci", "id"), "<=", 40),
                   StringPrefix(ColumnRef("ci", "note"), "(v"))
        node = ScanNode(relation=RelationRef.base("ci", "ci"), filters=filters)

        def scan_ids(block_size):
            db = build_tiny_database(tiny_schema)
            db.table("ci").build_zone_maps(block_size)
            ctx = ExecContext(database=db, stats=MaterializationStats())
            chunk = Scan(node).execute(ctx)
            return chunk.sources[0].row_ids, ctx

        baseline, _ = scan_ids(0)
        for block_size in (1, 13, 256, 4096):
            row_ids, ctx = scan_ids(block_size)
            assert np.array_equal(row_ids, baseline), block_size
            assert ctx.scan_blocks_total > 0
        # Tiny blocks over a filtered scan must actually prune something.
        _, ctx = scan_ids(13)
        assert ctx.scan_blocks_pruned > 0
