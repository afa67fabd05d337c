"""Unit tests for the catalog subsystem: types, schema, statistics, ANALYZE."""

import numpy as np
import pytest

from repro.catalog.analyze import analyze_columns, analyze_table
from repro.catalog.schema import Column, ForeignKey, Schema, TableSchema
from repro.catalog.statistics import (
    ColumnStats,
    DEFAULT_EQ_SELECTIVITY,
    Histogram,
    TableStats,
)
from repro.catalog.types import DataType
from repro.storage.table import DataTable
from tests import reference_analyze


class TestDataType:
    def test_numpy_dtypes(self):
        assert DataType.INT.numpy_dtype == np.dtype(np.int64)
        assert DataType.FLOAT.numpy_dtype == np.dtype(np.float64)
        assert DataType.STRING.numpy_dtype == np.dtype(object)

    def test_is_numeric(self):
        assert DataType.INT.is_numeric
        assert DataType.FLOAT.is_numeric
        assert not DataType.STRING.is_numeric

    def test_from_numpy(self):
        assert DataType.from_numpy(np.dtype(np.int32)) is DataType.INT
        assert DataType.from_numpy(np.dtype(np.float32)) is DataType.FLOAT
        assert DataType.from_numpy(np.dtype(object)) is DataType.STRING


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            TableSchema("x", [Column("a", DataType.INT), Column("a", DataType.INT)])

    def test_primary_key_must_exist(self):
        with pytest.raises(ValueError):
            TableSchema("x", [Column("a", DataType.INT)], primary_key="b")

    def test_foreign_key_column_must_exist(self):
        with pytest.raises(ValueError):
            TableSchema("x", [Column("a", DataType.INT)],
                        foreign_keys=[ForeignKey("b", "y", "id")])

    def test_column_lookup(self, tiny_schema):
        assert tiny_schema.table("t").column("year").dtype is DataType.INT
        assert tiny_schema.table("t").has_column("id")
        assert not tiny_schema.table("t").has_column("missing")

    def test_missing_table_raises(self, tiny_schema):
        with pytest.raises(KeyError):
            tiny_schema.table("nope")

    def test_duplicate_table_rejected(self, tiny_schema):
        with pytest.raises(ValueError):
            tiny_schema.add_table(TableSchema("t", [Column("id", DataType.INT)]))

    def test_is_fk_reference(self, tiny_schema):
        assert tiny_schema.is_fk_reference("mk", "movie_id", "t", "id")
        assert not tiny_schema.is_fk_reference("t", "id", "mk", "movie_id")

    def test_join_kind_pk_fk(self, tiny_schema):
        assert tiny_schema.join_kind("mk", "movie_id", "t", "id") == "pk-fk"
        assert tiny_schema.join_kind("t", "id", "mk", "movie_id") == "pk-fk"

    def test_join_kind_fk_fk(self, tiny_schema):
        assert tiny_schema.join_kind("mk", "movie_id", "ci", "movie_id") == "fk-fk"

    def test_join_kind_other(self, tiny_schema):
        assert tiny_schema.join_kind("t", "year", "k", "id") == "other"

    def test_foreign_key_columns(self, tiny_schema):
        assert tiny_schema.table("ci").foreign_key_columns() == {"movie_id", "person_id"}


class TestHistogram:
    def test_from_values_and_bounds(self):
        values = np.arange(1000, dtype=float)
        hist = Histogram.from_values(values, num_buckets=10)
        assert hist.num_buckets == 10
        assert hist.bounds[0] == 0.0
        assert hist.bounds[-1] == 999.0

    def test_single_value_column_gives_none(self):
        assert Histogram.from_values(np.full(10, 5.0)) is None

    def test_empty_gives_none(self):
        assert Histogram.from_values(np.array([], dtype=float)) is None

    def test_selectivity_le_monotone(self):
        hist = Histogram.from_values(np.arange(1000, dtype=float), num_buckets=20)
        sels = [hist.selectivity_le(v) for v in (0, 100, 500, 999, 2000)]
        assert sels == sorted(sels)
        assert sels[0] <= 0.01
        assert sels[-1] == 1.0

    def test_range_selectivity_roughly_uniform(self):
        hist = Histogram.from_values(np.arange(1000, dtype=float), num_buckets=20)
        sel = hist.selectivity_range(250, 750)
        assert 0.4 < sel < 0.6

    def test_range_selectivity_clamped(self):
        hist = Histogram.from_values(np.arange(100, dtype=float))
        assert hist.selectivity_range(200, 300) == 0.0
        assert hist.selectivity_range(None, None) == 1.0


class TestColumnStats:
    def test_unanalyzed_defaults(self):
        stats = ColumnStats(dtype=DataType.INT, num_rows=1000)
        assert not stats.analyzed
        assert stats.equality_selectivity(5) == DEFAULT_EQ_SELECTIVITY
        assert stats.effective_ndv() <= 200

    def test_mcv_equality_selectivity(self):
        stats = ColumnStats(dtype=DataType.STRING, num_rows=100, ndv=10,
                            mcv_values=["a", "b"], mcv_fractions=[0.5, 0.2])
        assert stats.equality_selectivity("a") == 0.5
        assert stats.equality_selectivity("z") == pytest.approx(0.3 / 8)

    def test_zero_rows(self):
        stats = ColumnStats(dtype=DataType.INT, num_rows=0, ndv=0)
        assert stats.equality_selectivity(1) == 0.0
        assert stats.range_selectivity(0, 10) == 0.0


class TestAnalyze:
    def test_row_counts_and_ndv(self):
        columns = {
            "id": np.arange(1000),
            "cat": np.array(["a", "b", "c", "d"] * 250, dtype=object),
        }
        stats = analyze_columns(columns)
        assert stats.num_rows == 1000
        assert stats.column("id").ndv == 1000
        assert stats.column("cat").ndv == 4

    def test_mcv_fractions(self):
        values = np.array(["hot"] * 900 + ["cold"] * 100, dtype=object)
        stats = analyze_columns({"c": values})
        col = stats.column("c")
        assert col.mcv_values[0] == "hot"
        assert col.mcv_fractions[0] == pytest.approx(0.9, abs=0.02)

    def test_numeric_histogram_built(self):
        stats = analyze_columns({"x": np.arange(5000, dtype=np.int64)})
        assert stats.column("x").histogram is not None
        assert stats.column("x").min_value == 0
        assert stats.column("x").max_value == 4999

    def test_null_fraction_strings(self):
        values = np.array(["a", None, "b", None], dtype=object)
        stats = analyze_columns({"c": values})
        assert stats.column("c").null_fraction == pytest.approx(0.5)

    def test_empty_table(self):
        stats = analyze_columns({"c": np.array([], dtype=np.int64)})
        assert stats.num_rows == 0
        assert stats.column("c").ndv == 0

    def test_sampling_caps_work(self):
        stats = analyze_columns({"x": np.arange(50_000)}, sample_rows=1000)
        # Sampled NDV scaled up: every sampled value distinct => assume unique.
        assert stats.column("x").ndv == 50_000

    def test_analyze_table_wrapper(self, tiny_db):
        table = tiny_db.table("mk")
        stats = analyze_table(table)
        assert stats.num_rows == table.num_rows
        assert set(stats.columns) == set(table.column_names)

    def test_row_count_only(self):
        stats = TableStats.row_count_only(42)
        assert stats.num_rows == 42
        assert not stats.analyzed
        assert stats.column("anything") is None
        fallback = stats.column_or_default("anything")
        assert fallback.num_rows == 42


def assert_identical_stats(actual: TableStats, expected: TableStats,
                           context: str = "") -> None:
    """:func:`assert_column_stats_equal` per column, plus the same Python
    type in every field and byte-equal histogram bounds."""
    assert type(actual.num_rows) is type(expected.num_rows), context
    assert actual.num_rows == expected.num_rows, context
    assert list(actual.columns) == list(expected.columns), context
    for column, want in expected.columns.items():
        got = actual.columns[column]
        assert_column_stats_equal(got, want, f"{context}.{column}")
        for name in ("num_rows", "null_fraction", "ndv", "min_value", "max_value"):
            assert type(getattr(got, name)) is type(getattr(want, name)), (context, column, name)
        assert ([type(v) for v in got.mcv_fractions]
                == [type(v) for v in want.mcv_fractions]), (context, column)
        if want.histogram is not None:
            assert got.histogram.bounds.dtype == want.histogram.bounds.dtype
            assert (got.histogram.bounds.tobytes()
                    == want.histogram.bounds.tobytes()), (context, column)


def _with_nulls(values: np.ndarray, every: int) -> np.ndarray:
    values = values.astype(float)
    values[::every] = np.nan
    return values


_REF_RNG = np.random.default_rng(11)
_CODES = _REF_RNG.integers(-1, 40, 3000).astype(np.int32)
_DICTIONARY = np.array([f"w{i:03d}" for i in range(40)], dtype=object)
_FLOATS = {"f": _with_nulls(_REF_RNG.normal(size=3000) * 37.5, 7),
           "g": _with_nulls(np.round(_REF_RNG.gamma(2.0, 3.0, 3000), 1), 3)}

#: name -> (columns of one length, analyze_columns keyword arguments)
REFERENCE_CASES = {
    "int64": ({"a": _REF_RNG.integers(-500, 500, 3000),
               "b": _REF_RNG.zipf(1.4, 3000).astype(np.int64),
               "c": np.arange(3000, dtype=np.int64) * 3 - 1000}, {}),
    "int32-codes": ({"c": _CODES, "n": _CODES.astype(np.int64)},
                    {"dictionaries": {"c": _DICTIONARY}}),
    "float-nan": (_FLOATS, {}),
    "float-nan-4-buckets": (_FLOATS, {"histogram_buckets": 4}),
    "float-nan-32-buckets": (_FLOATS, {"histogram_buckets": 32}),
    # Bounds where numpy's lerp takes its ``t >= 0.5`` branch, whose float
    # differs from ``a + d*t``.
    "float-lerp": ({"h": np.array([14.49, 63.4, 23.33, -57.34, 76.0, np.nan,
                                   -14.81, -32.98, 55.31, -1.87, -13.78,
                                   8.2, 31.68])}, {}),
    "object-none": ({"s": np.array(["x", None, "y", "x", None, "z", "x"] * 90,
                                   dtype=object)}, {}),
    "single-value": ({"i": np.full(40, 7, dtype=np.int64),
                      "f": np.full(40, -2.5)}, {}),
    "one-row": ({"i": np.array([3], dtype=np.int64),
                 "f": np.array([0.5])}, {}),
    "all-null": ({"f": np.full(30, np.nan),
                  "s": np.array([None] * 30, dtype=object),
                  "c": np.full(30, -1, dtype=np.int32)},
                 {"dictionaries": {"c": _DICTIONARY}}),
    "zero-rows": ({"i": np.array([], dtype=np.int64),
                   "f": np.array([], dtype=float),
                   "c": np.array([], dtype=np.int32)},
                  {"dictionaries": {"c": _DICTIONARY}}),
    # Two columns over the sample size: the second gets the second draw of
    # the call's one generator, not a fresh generator's first.
    "sampled": ({"x": _REF_RNG.integers(0, 3000, 12_000),
                 "y": _with_nulls(_REF_RNG.normal(size=12_000), 11)},
                {"sample_rows": 1000}),
}


class TestAnalyzeMatchesReference:
    """The one-sort ANALYZE equals the previous one, Python types included."""

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_equals_reference(self, case):
        columns, kwargs = REFERENCE_CASES[case]
        assert_identical_stats(analyze_columns(columns, **kwargs),
                               reference_analyze.analyze_columns(columns, **kwargs),
                               case)

    def test_from_values_equals_reference(self):
        values = _FLOATS["f"]
        got = Histogram.from_values(values, num_buckets=16)
        want = reference_analyze.histogram_from_values(values, num_buckets=16)
        assert got.bounds.tobytes() == want.bounds.tobytes()


def assert_column_stats_equal(actual: ColumnStats, expected: ColumnStats,
                              context: str = "") -> None:
    """Field-by-field equality, including MCV order and element types."""
    for name in ("dtype", "num_rows", "null_fraction", "ndv", "min_value",
                 "max_value", "mcv_values", "mcv_fractions"):
        assert getattr(actual, name) == getattr(expected, name), (context, name)
    assert ([type(v) for v in actual.mcv_values]
            == [type(v) for v in expected.mcv_values]), context
    assert (actual.histogram is None) == (expected.histogram is None), context
    if actual.histogram is not None:
        assert np.array_equal(actual.histogram.bounds,
                              expected.histogram.bounds), context


def value_space_stats(table: DataTable, **kwargs) -> TableStats:
    """ANALYZE over the decoded rows: what ``analyze_table`` must equal."""
    return analyze_columns(
        {name: table.column_values(name, cache=False)
         for name in table.columns}, **kwargs)


def _strings(values) -> np.ndarray:
    return np.array(values, dtype=object)


_RNG = np.random.default_rng(7)

STRING_COLUMNS = {
    "no-nulls": _strings(["a", "b", "c", "d"] * 250),
    "some-nulls": _strings(["x", None, "y", "x", None, "z", "x"] * 100),
    "all-null": _strings([None] * 50),
    "empty": _strings([]),
    "all-distinct": _strings([f"v{i:05d}" for i in range(3000)]),
    # Twelve values tied at the same count: which ten become MCVs, and in
    # what order, is decided by the argsort over the counts alone.
    "tied-mcv-counts": _strings([f"t{i:02d}" for i in range(12)] * 40
                                + ["once", "twice", "twice"]),
    "sampled": _strings([None if i % 17 == 0 else f"s{i:04d}" for i in
                         _RNG.zipf(1.3, 25_000) % 4000]),
}


class TestAnalyzeOnCodes:
    """ANALYZE over dictionary codes equals ANALYZE over the strings."""

    @pytest.mark.parametrize("case", STRING_COLUMNS)
    def test_code_space_equals_value_space(self, case):
        table = DataTable("s", {"c": STRING_COLUMNS[case].copy()})
        assert table.encode_strings() == ["c"]
        on_codes = analyze_columns(table.columns,
                                   dictionaries=table.dictionaries)
        on_values = analyze_columns({"c": STRING_COLUMNS[case]})
        assert on_codes.num_rows == on_values.num_rows
        assert_column_stats_equal(on_codes.columns["c"],
                                  on_values.columns["c"], case)
        assert on_codes.columns["c"].dtype is DataType.STRING

    @pytest.mark.parametrize("build, scale", [
        ("imdb", 0.2), ("tpch", 1.0), ("dsb", 0.5)])
    def test_shipped_databases_column_by_column(self, build, scale):
        """Sampled tables included: both sides draw one sample per column
        from one generator, in column order."""
        from repro.workloads import dsb, imdb, tpch

        builder = {"imdb": imdb.build_imdb_database,
                   "tpch": tpch.build_tpch_database,
                   "dsb": dsb.build_dsb_database}[build]
        db = builder(scale=scale)
        sampled = encoded = 0
        for name in db.base_table_names:
            table = db.table(name)
            expected = value_space_stats(table)
            stored = db.stats(name)
            assert stored.num_rows == expected.num_rows
            assert list(stored.columns) == list(expected.columns)
            for column, stats in expected.columns.items():
                assert_column_stats_equal(stored.columns[column], stats,
                                          f"{build}.{name}.{column}")
            sampled += table.num_rows > 10_000
            encoded += len(table.dictionaries)
        assert sampled and encoded
