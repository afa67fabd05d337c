"""Tests for the dynamic-data subsystem (mutations + staleness).

Three families:

* **Storage-layer units** -- dictionary growth (``encode_append``),
  incremental zone maps (``TableZoneMaps.extended`` vs. a full rebuild),
  append/delete semantics on :class:`~repro.storage.table.DataTable`,
  index maintenance, epochs and staleness bookkeeping, subplan-cache
  invalidation, and the mutation fences (session views / serving).
* **Policy units** -- :class:`~repro.dynamic.DriftStream` purity and
  the :class:`~repro.dynamic.StalenessController` policies.
* **Mutation-equivalence property sweep** -- random append/delete
  sequences applied to a table must leave scans *bit-identical* to a
  database rebuilt from scratch on the surviving rows, across every
  storage toggle combination (zone-map block size x dictionary
  encoding).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamic import DriftConfig, DriftStream, StalenessController
from repro.executor.subplan_cache import SubplanCache
from repro.reopt.registry import make_algorithm
from repro.serving import EngineServer, ServingConfig
from repro.storage.database import Database, IndexConfig, MutationError
from repro.storage.dictionary import NULL_CODE, decode_lookup, encode_append
from repro.storage.table import DataTable
from repro.storage.zonemaps import TableZoneMaps
from tests.reference_eval import assert_results_match, canonicalize_table
from tests.test_differential import (
    DIFF_SCHEMA,
    build_differential_database,
    make_stream,
)

SEED = 20260808


# ----------------------------------------------------------------------
# Mutation helpers shared by the unit tests and the property sweep
# ----------------------------------------------------------------------
def random_append_batch(rng: np.random.Generator, db: Database,
                        table_name: str, count: int) -> dict[str, np.ndarray]:
    """``count`` schema-valid rows for ``table_name`` (fresh PKs, in-range
    FKs, a mix of known and novel strings, values beyond the loaded range
    so appended blocks stretch the zone maps)."""
    table = db.table(table_name)
    schema = db.schema.table(table_name)
    fk_pools = {fk.column: db.table(fk.ref_table).column_values(fk.ref_column,
                                                                cache=False)
                for fk in schema.foreign_keys}
    batch: dict[str, np.ndarray] = {}
    for name in table.column_names:
        values = table.column_values(name, cache=False)
        if name == schema.primary_key:
            start = int(values.max()) + 1
            batch[name] = np.arange(start, start + count, dtype=np.int64)
        elif name in fk_pools:
            pool = fk_pools[name]
            batch[name] = pool[rng.integers(0, len(pool), count)]
        elif values.dtype == object:
            known = np.unique(values[:200].astype(object))
            out = known[rng.integers(0, len(known), count)].astype(object)
            novel = rng.random(count) < 0.4
            out[novel] = np.array(
                [f"{name}~new~{rng.integers(0, 10_000)}~{i}"
                 for i in range(int(novel.sum()))], dtype=object)
            batch[name] = out
        elif values.dtype.kind == "f":
            lo, hi = float(values.min()), float(values.max())
            batch[name] = rng.uniform(lo, hi + (hi - lo), count)
        else:
            lo, hi = int(values.min()), int(values.max())
            batch[name] = rng.integers(lo, 2 * hi - lo + 1, count,
                                       dtype=np.int64)
    return batch


def mutate_randomly(db: Database, rng: np.random.Generator,
                    table_name: str, batches: int) -> None:
    """Apply ``batches`` interleaved random append/delete batches."""
    for _ in range(batches):
        db.append_rows(table_name,
                       random_append_batch(rng, db, table_name,
                                           int(rng.integers(30, 120))))
        table = db.table(table_name)
        alive = table.valid_row_ids()
        kill = rng.choice(alive, size=min(len(alive) // 10, 60),
                          replace=False)
        db.delete_rows(table_name, kill)


def rebuild_from_live_rows(db: Database, block_size: int,
                           dict_encode: bool) -> Database:
    """A from-scratch database holding exactly the live rows of ``db``."""
    fresh = Database(DIFF_SCHEMA, index_config=IndexConfig.PK_FK,
                     block_size=block_size, dict_encode=dict_encode)
    for name in sorted(db.base_table_names):
        table = db.table(name)
        alive = table.valid_row_ids()
        fresh.load_table(DataTable(name, {
            column: table.column_values(column, cache=False)[alive]
            for column in table.column_names}))
    return fresh


# ----------------------------------------------------------------------
# Storage-layer units
# ----------------------------------------------------------------------
class TestDictionaryGrowth:
    def test_append_of_known_values_keeps_codes_and_dictionary(self):
        dictionary = np.array(["a", "b", "c"], dtype=object)
        codes = np.array([0, 2, NULL_CODE, 1], dtype=np.int32)
        old, new, merged, remapped = encode_append(
            codes, dictionary, np.array(["c", "a", None], dtype=object))
        assert not remapped
        assert old is codes and merged is dictionary
        assert list(new) == [2, 0, NULL_CODE]

    def test_growth_merges_sorted_and_remaps_monotone(self):
        dictionary = np.array(["b", "d"], dtype=object)
        codes = np.array([1, 0, NULL_CODE], dtype=np.int32)
        values = np.array(["a", "d", "c", None], dtype=object)
        old, new, merged, remapped = encode_append(codes, dictionary, values)
        assert remapped
        assert list(merged) == ["a", "b", "c", "d"]  # stays sorted
        # Old codes decode to the same strings under the merged dictionary.
        lookup = decode_lookup(merged)
        assert list(lookup[old]) == ["d", "b", None]
        assert list(lookup[new]) == ["a", "d", "c", None]

    def test_non_string_append_rejected(self):
        with pytest.raises(TypeError):
            encode_append(np.array([0], dtype=np.int32),
                          np.array(["a"], dtype=object),
                          np.array([3], dtype=object))


class TestIncrementalZoneMaps:
    def test_extended_equals_full_rebuild_after_appends(self):
        db = build_differential_database(block_size=64)
        rng = np.random.default_rng(SEED)
        db.append_rows("cast_info",
                       random_append_batch(rng, db, "cast_info", 333))
        table = db.table("cast_info")
        incremental = table.zone_maps
        rebuilt = TableZoneMaps.build(table.columns, block_size=64)
        assert incremental.num_rows == rebuilt.num_rows
        for name, zones in rebuilt.columns.items():
            np.testing.assert_array_equal(
                incremental.columns[name], zones,
                err_msg=f"zone maps diverged for cast_info.{name}")

    def test_shrinking_is_rejected(self):
        db = build_differential_database(block_size=64)
        table = db.table("movie")
        with pytest.raises(ValueError):
            table.zone_maps.extended(
                {name: values[:10] for name, values in table.columns.items()})


class TestAppendDelete:
    def test_append_validates_columns_and_lengths(self):
        db = build_differential_database()
        table = db.table("keyword")
        with pytest.raises(ValueError):
            table.append_rows({"id": np.array([999])})  # missing "kw"
        with pytest.raises(ValueError):
            table.append_rows({"id": np.array([999]),
                               "kw": np.array(["x", "y"], dtype=object)})

    def test_epochs_count_mutation_batches(self):
        db = build_differential_database()
        assert db.table_epoch("movie") == 0
        rng = np.random.default_rng(SEED)
        db.append_rows("movie", random_append_batch(rng, db, "movie", 10))
        db.delete_rows("movie", np.array([0, 1]))
        assert db.table_epoch("movie") == 2
        assert db.data_epoch == 2
        assert db.stats_staleness("movie") == 2
        db.analyze("movie")
        assert db.stats_staleness("movie") == 0

    def test_deleted_rows_leave_scans_and_stats(self):
        db = build_differential_database()
        table = db.table("movie")
        before = table.num_rows
        dead = db.delete_rows("movie", np.array([0, 3, 5, 3]))
        assert dead == 3  # the repeated id counts once
        assert table.num_rows == before  # physical rows retained
        assert table.num_valid_rows == before - 3
        assert 0 not in set(table.valid_row_ids())
        assert len(list(table.to_rows())) == before - 3
        db.analyze("movie")
        assert db.stats("movie").num_rows == before - 3

    def test_delete_out_of_range_rejected(self):
        db = build_differential_database()
        with pytest.raises(IndexError):
            db.delete_rows("keyword", np.array([10_000_000]))

    def test_indexes_follow_mutations(self):
        db = build_differential_database()
        rng = np.random.default_rng(SEED)
        batch = random_append_batch(rng, db, "movie", 5)
        db.append_rows("movie", batch)
        index = db.index("movie", "id")
        hit = index.lookup(int(batch["id"][0]))
        assert len(hit) == 1
        values = db.table("movie").column_values("id", cache=False)
        assert values[hit[0]] == batch["id"][0]
        db.delete_rows("movie", hit)
        assert len(db.index("movie", "id").lookup(int(batch["id"][0]))) == 0


class TestMutationFences:
    def test_session_views_cannot_mutate(self):
        db = build_differential_database()
        view = db.session_view()
        with pytest.raises(MutationError):
            view.delete_rows("movie", np.array([0]))
        with pytest.raises(MutationError):
            view.analyze("movie")
        # ... but the origin still can, and the view sees the result.
        db.delete_rows("movie", np.array([0]))
        assert view.table("movie").num_valid_rows == db.table("movie").num_valid_rows

    def test_serving_fences_mutations_until_shutdown(self):
        db = build_differential_database()
        server = EngineServer(db, ServingConfig(workers=1))
        server.start()
        try:
            with pytest.raises(MutationError):
                db.delete_rows("movie", np.array([0]))
        finally:
            server.shutdown()
        db.delete_rows("movie", np.array([0]))  # fence released
        server.shutdown()  # idempotent: no unmatched end_serving()

    def test_unmatched_end_serving_rejected(self):
        db = build_differential_database()
        with pytest.raises(RuntimeError):
            db.end_serving()


class TestSubplanCacheInvalidation:
    def test_mutation_invalidates_entries_of_touched_tables(self):
        db = build_differential_database()
        cache = SubplanCache()
        runner = make_algorithm("Default", db, subplan_cache=cache)
        query = make_stream(db).query_at(3)
        runner.run(query)
        runner.run(query)
        assert cache.hits > 0
        rng = np.random.default_rng(SEED)
        mutate_randomly(db, rng, "cast_info", batches=1)
        after = canonicalize_table(runner.run(query).final_table)
        assert cache.invalidated > 0
        # The post-mutation answer is recomputed, not served stale: it must
        # match a cache-free runner over the mutated database.
        fresh = make_algorithm("Default", db).run(query)
        assert_results_match(canonicalize_table(fresh.final_table), after,
                             context="post-mutation cache answer")


# ----------------------------------------------------------------------
# Drift + staleness policy units
# ----------------------------------------------------------------------
class TestDriftStream:
    def _stream(self, db, seed=SEED):
        return DriftStream(
            db, DriftConfig(fact_table="cast_info", append_rows=200,
                            delete_fraction=0.05), seed=seed)

    def test_batches_are_pure_in_seed_and_step(self):
        a = self._stream(build_differential_database())
        b = self._stream(build_differential_database())
        for step in (0, 1, 5):
            ba, bb = a.batch_at(step), b.batch_at(step)
            np.testing.assert_array_equal(ba.delete_ids, bb.delete_ids)
            for name in ba.appends:
                np.testing.assert_array_equal(ba.appends[name],
                                              bb.appends[name])

    def test_apply_grows_the_table_and_bumps_epochs(self):
        db = build_differential_database()
        before = db.table("cast_info").num_rows
        self._stream(db).run(3)
        table = db.table("cast_info")
        assert table.num_rows == before + 3 * 200
        assert table.num_valid_rows < table.num_rows  # deletes landed
        assert db.table_epoch("cast_info") == 6  # 3 appends + 3 deletes

    def test_views_are_rejected(self):
        db = build_differential_database()
        with pytest.raises(ValueError):
            self._stream(db.session_view())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DriftConfig(fact_table="t", delete_fraction=1.0)
        with pytest.raises(ValueError):
            DriftConfig(fact_table="t", append_rows=-1)


class TestStalenessController:
    def test_policy_validation(self):
        db = build_differential_database()
        with pytest.raises(ValueError):
            StalenessController(db, policy="sometimes")
        with pytest.raises(ValueError):
            StalenessController(db, period=0)
        with pytest.raises(ValueError):
            StalenessController(db, q_error_threshold=0.5)

    def test_periodic_reanalyzes_every_n_batches(self):
        db = build_differential_database()
        controller = StalenessController(db, policy="periodic", period=2)
        rng = np.random.default_rng(SEED)
        mutate_randomly(db, rng, "cast_info", batches=3)  # 6 mutation batches
        assert controller.reanalyze_count == 3
        assert db.stats_staleness("cast_info") == 0
        controller.close()

    def test_never_policy_leaves_stats_alone(self):
        db = build_differential_database()
        controller = StalenessController(db, policy="never")
        mutate_randomly(db, np.random.default_rng(SEED), "cast_info", 2)
        assert controller.reanalyze_count == 0
        assert db.stats_staleness("cast_info") == 4
        controller.close()

    def test_triggered_reanalyzes_on_observed_qerror(self):
        db = build_differential_database()
        controller = StalenessController(db, policy="triggered",
                                         q_error_threshold=2.0)
        mutate_randomly(db, np.random.default_rng(SEED), "cast_info", 2)
        query = make_stream(db).query_at(1)
        runner = make_algorithm("Default", db)
        report = runner.run(query)
        actual = (report.iterations[-1].result_rows if report.iterations
                  else report.final_rows)
        # Force a huge observed error: the stale tables must be re-ANALYZEd.
        observed = controller.observe(query, actual_rows=actual * 1000 + 1000)
        assert observed.q_error > 2.0
        assert "cast_info" in observed.reanalyzed
        assert db.stats_staleness("cast_info") == 0
        assert controller.reanalyze_count >= 1
        # A second perfect observation re-analyzes nothing further.
        count = controller.reanalyze_count
        good = controller.observe(query, actual_rows=observed.estimated_rows)
        assert good.reanalyzed == () and controller.reanalyze_count == count
        assert controller.mean_q_error >= 1.0
        assert controller.p95_q_error >= 1.0
        controller.close()

    def test_close_detaches_the_listener(self):
        db = build_differential_database()
        controller = StalenessController(db, policy="periodic", period=1)
        controller.close()
        mutate_randomly(db, np.random.default_rng(SEED), "cast_info", 1)
        assert controller.reanalyze_count == 0


# ----------------------------------------------------------------------
# Property sweep: mutated table == from-scratch rebuild, all toggles
# ----------------------------------------------------------------------
TOGGLE_COMBOS = [
    # (block_size, dict_encode)
    (64, True),
    (0, True),      # zone maps off
    (64, False),    # dictionary encoding off
    (0, False),     # both off
    (17, True),     # ragged blocks: appends extend a partial last block
    (17, False),
]


class TestMutationEquivalence:
    @pytest.mark.parametrize("block_size,dict_encode", TOGGLE_COMBOS)
    def test_mutated_scans_match_from_scratch_rebuild(self, block_size,
                                                      dict_encode):
        """Random append/delete sequences, then every query must return
        bit-identical results on the mutated database and on a database
        rebuilt from scratch over exactly the surviving rows (fresh zone
        maps, fresh dictionaries, fresh indexes, fresh statistics)."""
        mutated = build_differential_database(block_size=block_size,
                                              dict_encode=dict_encode)
        rng = np.random.default_rng(SEED + block_size + dict_encode)
        mutate_randomly(mutated, rng, "cast_info", batches=3)
        mutate_randomly(mutated, rng, "movie_kw", batches=2)
        rebuilt = rebuild_from_live_rows(mutated, block_size, dict_encode)

        queries = make_stream(rebuilt, seed=SEED).generate(12)
        runner_m = make_algorithm("Default", mutated)
        runner_r = make_algorithm("Default", rebuilt)
        for index, query in enumerate(queries):
            expected = canonicalize_table(runner_r.run(query).final_table)
            actual = canonicalize_table(runner_m.run(query).final_table)
            assert_results_match(
                expected, actual,
                context=f"mutated vs rebuilt (block={block_size}, "
                        f"dict={dict_encode}, index={index})")
