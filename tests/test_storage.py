"""Unit tests for the storage subsystem: tables, indexes, database."""

import numpy as np
import pytest

from repro.catalog.statistics import TableStats
from repro.storage.database import Database, IndexConfig
from repro.storage.index import SortedIndex
from repro.storage.table import DataTable


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

    def test_take_and_filter(self):
        table = DataTable("x", {"a": np.arange(10)})
        taken = table.take(np.array([1, 3, 5]))
        assert list(taken.column("a")) == [1, 3, 5]
        filtered = table.filter(table.column("a") % 2 == 0)
        assert list(filtered.column("a")) == [0, 2, 4, 6, 8]

    def test_project_and_rename(self):
        table = DataTable("x", {"a": np.arange(3), "b": np.arange(3)})
        assert table.project(["b"]).column_names == ["b"]
        renamed = table.rename_columns({"a": "z"})
        assert set(renamed.column_names) == {"z", "b"}

    def test_from_rows_round_trip(self):
        table = DataTable.from_rows("x", ["a", "s"], [(1, "p"), (2, "q")])
        assert table.column("a").dtype == np.int64
        assert table.column("s").dtype == object
        assert table.to_rows() == [(1, "p"), (2, "q")]

    def test_from_rows_empty(self):
        table = DataTable.from_rows("x", ["a"], [])
        assert table.num_rows == 0

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
        assert db.temp_entry(name).covered_aliases == frozenset({"t"})
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


class TestBlockPartitioning:
    def test_loaded_tables_get_zone_maps(self, tiny_db):
        zone_maps = tiny_db.table("ci").zone_maps
        assert zone_maps is not None
        assert zone_maps.block_size == tiny_db.block_size
        expected = -(-tiny_db.table("ci").num_rows // zone_maps.block_size)
        assert zone_maps.num_blocks == expected
        assert set(zone_maps.columns) == set(tiny_db.table("ci").column_names)

    def test_block_size_zero_disables_partitioning(self, tiny_schema):
        from tests.conftest import build_tiny_database

        db = build_tiny_database(tiny_schema)
        for name in db.base_table_names:
            db.table(name).build_zone_maps(0)
            assert db.table(name).zone_maps is None

    def test_temp_tables_are_not_partitioned(self, tiny_schema):
        from tests.conftest import build_tiny_database

        db = build_tiny_database(tiny_schema)
        name = db.register_temp(DataTable("temp", {"t.id": np.arange(10)}),
                                TableStats.row_count_only(10), frozenset({"t"}))
        assert db.table(name).zone_maps is None

    def test_zone_bounds_cover_the_data(self, tiny_db):
        table = tiny_db.table("mk")
        zones = table.zone_maps.columns["movie_id"]
        values = table.column("movie_id")
        for block, zone in enumerate(zones):
            start, stop = table.zone_maps.block_bounds(block)
            assert zone.min_value == values[start:stop].min()
            assert zone.max_value == values[start:stop].max()
            assert zone.num_rows == stop - start
            assert zone.null_count == 0
