"""Unit tests for the storage subsystem: tables, indexes, database."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.statistics import TableStats
from repro.storage.database import Database, IndexConfig
from repro.storage.dictionary import encode_column
from repro.storage.index import SortedIndex
from repro.storage.table import DataTable
from tests import reference_encode


class TestDataTable:
    def test_num_rows_and_columns(self):
        table = DataTable("x", {"a": np.arange(5), "b": np.arange(5) * 2})
        assert table.num_rows == 5
        assert table.column_names == ["a", "b"]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            DataTable("x", {"a": np.arange(5), "b": np.arange(3)})

    def test_empty_table(self):
        table = DataTable("x", {})
        assert table.num_rows == 0

    def test_zero_column_table_rejects_nonempty_selection(self):
        """A zero-column table has no rows, so selecting rows from it is a
        bug upstream -- it must fail loudly instead of silently yielding a
        0-row result (the num_rows == 0 property would otherwise hide the
        dangling selection downstream of Scan/Aggregate)."""
        table = DataTable("x", {})
        with pytest.raises(ValueError):
            table.take(np.array([0, 1]))
        with pytest.raises(ValueError):
            table.filter(np.array([True]))
        # Empty selections stay legal: they describe the table faithfully.
        assert table.take(np.array([], dtype=np.int64)).num_rows == 0
        assert table.filter(np.array([], dtype=bool)).num_rows == 0

    def test_zero_column_table_keeps_its_count(self, tiny_schema):
        """A table with rows but no columns (a query that outputs nothing)
        carries its row count through every derivation."""
        from repro.executor.aggregates import union_all

        table = DataTable("x", {}, num_rows=4)
        assert table.num_rows == 4
        assert table.take(np.array([0, 3, 3])).num_rows == 3
        assert table.filter(np.array([True, False, True, True])).num_rows == 3
        assert table.project([]).num_rows == 4
        assert union_all([table, table.take(np.array([1]))]).num_rows == 5
        db = Database(tiny_schema)
        name = db.register_temp(table, TableStats.row_count_only(4),
                                frozenset({"t"}))
        assert db.table(name).num_rows == 4
        with pytest.raises(ValueError):
            table.take(np.array([4]))
        with pytest.raises(ValueError):
            table.filter(np.array([True]))
        with pytest.raises(ValueError):
            DataTable("y", {"a": np.arange(3)}, num_rows=4)

    def test_take_and_filter(self):
        table = DataTable("x", {"a": np.arange(10)})
        taken = table.take(np.array([1, 3, 5]))
        assert list(taken.column("a")) == [1, 3, 5]
        filtered = table.filter(table.column("a") % 2 == 0)
        assert list(filtered.column("a")) == [0, 2, 4, 6, 8]

    def test_project(self):
        table = DataTable("x", {"a": np.arange(3), "b": np.arange(3)})
        assert table.project(["b"]).column_names == ["b"]

    def test_missing_column_raises(self):
        table = DataTable("x", {"a": np.arange(3)})
        with pytest.raises(KeyError):
            table.column("zz")

    def test_memory_accounting_counts_strings(self):
        ints = DataTable("x", {"a": np.arange(100)})
        strings = DataTable("y", {"s": np.array(["abc"] * 100, dtype=object)})
        assert ints.memory_bytes == 800
        assert strings.memory_bytes > 800


    def test_borrowed_dictionary_is_not_charged(self):
        """A base table pays for the dictionary it built; a temporary or
        result holding codes into it pays four bytes a row."""
        words = np.array([f"word{i:05d}" for i in range(5000)], dtype=object)
        base = DataTable("base", {"s": words.copy(), "x": np.arange(5000)})
        assert base.encode_strings() == ["s"]
        owned = 5000 * 4 + 5000 * 8 + 5000 * (8 + 24)
        assert base.memory_bytes == owned
        for derived in (base.take(np.arange(10)),
                        DataTable("temp", {"t.s": base.column("s")[:10]},
                                  dictionaries={"t.s": base.dictionary("s")})):
            assert derived.memory_bytes == 10 * 4 + (
                10 * 8 if derived.has_column("x") else 0)


class TestSortedIndex:
    def test_lookup_single(self):
        values = np.array([5, 3, 5, 1, 5])
        index = SortedIndex("t", "c", values)
        assert sorted(index.lookup(5)) == [0, 2, 4]
        assert list(index.lookup(99)) == []

    def test_lookup_batch_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 50, 500)
        index = SortedIndex("t", "c", values)
        probes = rng.integers(0, 60, 80)
        probe_pos, row_ids = index.lookup_batch(probes)
        expected = sum(int((values == p).sum()) for p in probes)
        assert len(row_ids) == expected
        assert np.all(values[row_ids] == probes[probe_pos])

    def test_lookup_batch_empty(self):
        index = SortedIndex("t", "c", np.array([1, 2, 3]))
        probe_pos, row_ids = index.lookup_batch(np.array([9, 10]))
        assert len(probe_pos) == 0 and len(row_ids) == 0


class TestDatabase:
    def test_load_requires_schema_table(self, tiny_schema):
        db = Database(tiny_schema)
        with pytest.raises(KeyError):
            db.load_table(DataTable("unknown", {"a": np.arange(3)}))

    def test_pk_fk_indexes_built(self, tiny_db):
        assert tiny_db.has_index("t", "id")
        assert tiny_db.has_index("mk", "movie_id")
        assert tiny_db.has_index("mk", "keyword_id")
        assert not tiny_db.has_index("t", "year")

    def test_pk_only_config(self, tiny_schema):
        from tests.conftest import build_tiny_database

        db = build_tiny_database(tiny_schema, index_config=IndexConfig.PK_ONLY)
        assert db.has_index("t", "id")
        assert not db.has_index("mk", "movie_id")

    def test_with_index_config_clones(self, tiny_db):
        clone = tiny_db.with_index_config(IndexConfig.PK_ONLY)
        assert not clone.has_index("mk", "movie_id")
        assert tiny_db.has_index("mk", "movie_id")
        assert clone.table("t") is tiny_db.table("t")

    def test_stats_available_after_load(self, tiny_db):
        stats = tiny_db.stats("ci")
        assert stats.num_rows == tiny_db.table("ci").num_rows
        assert stats.analyzed

    def test_temp_table_lifecycle(self, tiny_schema):
        from tests.conftest import build_tiny_database

        db = build_tiny_database(tiny_schema)
        table = DataTable("temp", {"t.id": np.arange(10)})
        name = db.register_temp(table, TableStats.row_count_only(10),
                                frozenset({"t"}))
        assert db.has_table(name)
        assert db.is_temp(name)
        assert db.stats(name).num_rows == 10
        assert db.temp_memory_bytes() > 0
        db.drop_temp_tables()

    def test_temp_table_keeps_codes_and_dictionary(self, tiny_schema):
        from tests.conftest import build_tiny_database

        db = build_tiny_database(tiny_schema)
        dictionary = np.array(["f", "m"], dtype=object)
        table = DataTable("out", {"n.gender": np.array([1, 0, 1], dtype=np.int32)},
                          dictionaries={"n.gender": dictionary})
        name = db.register_temp(table, TableStats.row_count_only(3),
                                frozenset({"n"}))
        temp = db.table(name)
        assert temp.dictionary("n.gender") is dictionary
        assert temp.column("n.gender").dtype == np.int32
        assert list(temp.column_values("n.gender")) == ["m", "f", "m"]
        assert db.temp_memory_bytes() == 3 * 4
        db.drop_temp_tables()
        assert not db.has_table(name)
        assert db.temp_table_names == []

    def test_unknown_table_raises(self, tiny_db):
        with pytest.raises(KeyError):
            tiny_db.table("missing")
        with pytest.raises(KeyError):
            tiny_db.stats("missing")


class TestOneStorageFormat:
    """Loading a table has one outcome: every eligible string column is
    stored as dictionary codes and everything else stays as given."""

    @staticmethod
    def _database(columns: dict, analyze: bool = True):
        from repro.catalog.schema import Column, Schema, TableSchema
        from repro.catalog.types import DataType

        schema = Schema([TableSchema(
            "s", [Column(name, DataType.STRING if values.dtype == object
                         else DataType.INT)
                  for name, values in columns.items()],
            primary_key="id")])
        db = Database(schema)
        db.load_table(DataTable("s", dict(columns)), analyze=analyze)
        return db

    def test_every_eligible_string_column_is_encoded(self, tiny_db):
        for name in tiny_db.base_table_names:
            table = tiny_db.table(name)
            for column, values in table.columns.items():
                encoded = table.is_encoded(column)
                assert encoded == (values.dtype == np.int32
                                   and not tiny_db.has_index(name, column)), (
                    name, column)
                if encoded:
                    dictionary = table.dictionary(column)
                    assert list(dictionary) == sorted(set(dictionary))
        assert tiny_db.table("ci").is_encoded("note")
        assert tiny_db.table("n").is_encoded("gender")

    def test_indexed_string_column_stays_values(self):
        keys = np.array(["b", "a", "c"], dtype=object)
        db = self._database({"id": keys,
                             "tag": np.array(["x", "y", "x"], dtype=object)})
        table = db.table("s")
        assert not table.is_encoded("id") and table.is_encoded("tag")
        assert table.column("id") is keys
        _, rows = db.index("s", "id").lookup_batch(np.array(["c"], dtype=object))
        assert rows.tolist() == [2]

    def test_mixed_type_object_column_stays_values(self):
        mixed = np.array(["a", 7, None, "b"], dtype=object)
        # ANALYZE cannot order mixed types either, so load row counts only.
        db = self._database({"id": np.arange(4), "v": mixed}, analyze=False)
        table = db.table("s")
        assert not table.is_encoded("v")
        assert table.column("v") is mixed
        assert table.dictionaries == {}

    def test_session_view_and_index_clone_share_the_encoded_tables(self, tiny_db):
        for other in (tiny_db.session_view(),
                      tiny_db.with_index_config(IndexConfig.PK_ONLY)):
            for name in tiny_db.base_table_names:
                table = other.table(name)
                assert table is tiny_db.table(name)
                assert table.dictionaries == tiny_db.table(name).dictionaries


def _assert_encodes_like_reference(values) -> None:
    """Equal int32 codes and an equal object dictionary, element types
    included, or ineligible for both encoders."""
    got = encode_column(values)
    expected = reference_encode.encode_column(values)
    if expected is None:
        assert got is None
        return
    (codes, dictionary), (ref_codes, ref_dictionary) = got, expected
    assert codes.dtype == ref_codes.dtype == np.int32
    assert np.array_equal(codes, ref_codes)
    assert dictionary.dtype == ref_dictionary.dtype == object
    assert dictionary.shape == ref_dictionary.shape
    assert [(type(v), v) for v in dictionary] == [
        (type(v), v) for v in ref_dictionary]


def _objects(*values) -> np.ndarray:
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


ENCODE_CASES = {
    "none": _objects("b", None, "a", None),
    "two-nan-objects": _objects("a", float("nan"), "b", float("nan")),
    "numpy-nan": _objects(np.float64("nan"), "a", np.float64("nan")),
    "str-and-int": _objects("a", 7, None, "b"),
    "str-and-bool": _objects("a", True, "b"),
    "unhashable-list": _objects("a", ["a"], "b"),
    "numpy-str-next-to-equal-str": _objects(np.str_("a"), "a", "b", np.str_("b")),
    "empty": _objects(),
    "all-null": _objects(None, float("nan"), None),
    "trailing-nul": _objects("a\x00", "a", "a\x00\x00", "a"),
    "non-ascii": _objects("\u00e9t\u00e9", "ete", "\u65e5\u672c", "\U0001f600", "ete"),
    "single-value": _objects("x"),
}


class TestEncoderAgainstReference:
    """``encode_column`` stores what the per-row encoder it replaced stored."""

    @pytest.mark.parametrize("case", ENCODE_CASES)
    def test_same_codes_and_dictionary(self, case):
        _assert_encodes_like_reference(ENCODE_CASES[case])

    def test_non_object_column_is_not_encoded(self):
        assert encode_column(np.array(["a", "b"])) is None
        assert reference_encode.encode_column(np.array(["a", "b"])) is None

    @given(st.lists(st.one_of(
        st.sampled_from(["", "a", "ab", "b", "a\x00", "\u00e9", None]),
        st.builds(float, st.just("nan"))), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_property_small_pool(self, values):
        _assert_encodes_like_reference(_objects(*values))

    @pytest.mark.parametrize("workload", ("tpch", "imdb", "dsb"))
    def test_loaded_databases_pin_the_reference(self, workload):
        """Every encoded column of a generated database holds the codes and
        dictionary the reference encoder makes of its decoded values."""
        from repro.workloads import dbcache

        db = dbcache.build(workload, scale=0.1, index_config=IndexConfig.PK_FK)
        encoded = 0
        for name in db.base_table_names:
            table = db.table(name)
            for column in table.dictionaries:
                values = table.column_values(column, cache=False)
                codes, dictionary = reference_encode.encode_column(values)
                assert np.array_equal(table.column(column), codes), (name, column)
                assert [(type(v), v) for v in table.dictionary(column)] == [
                    (type(v), v) for v in dictionary], (name, column)
                encoded += 1
        assert encoded > 0


def test_dbcache_keeps_one_database_per_workload_scale_and_indexes():
    from repro.workloads import dbcache

    dbcache.enable()
    try:
        first = dbcache.build("tpch", scale=0.01, index_config=IndexConfig.PK_FK)
        assert dbcache.build("tpch", scale=0.01,
                             index_config=IndexConfig.PK_FK) is first
        assert dbcache.build("tpch", scale=0.01,
                             index_config=IndexConfig.PK_ONLY) is not first
    finally:
        dbcache.disable()
    assert dbcache.build("tpch", scale=0.01,
                         index_config=IndexConfig.PK_FK) is not first
