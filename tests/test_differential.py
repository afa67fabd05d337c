"""Differential correctness: vectorized engine vs. row-at-a-time oracle.

Two acceptance-grade test families for this PR's test subsystem:

* **Differential oracle** -- 200 seeded ``sqlgen`` queries are executed by
  the vectorized engine (through the ``Default`` baseline: real optimizer,
  real executor, zone-map pruned scans) and by the independent reference
  evaluator in ``tests/reference_eval.py``; any row-count or aggregate
  mismatch fails with the reproducing ``(seed, index)`` pair.
* **Cross-policy equivalence** -- every registered re-optimization policy
  must return identical *results* (not just comparable timings) on a
  50-query generated stream, with and without the cross-policy subplan
  cache enabled.  Counts, group keys, and min/max aggregates must match
  exactly; float sums/averages within 1e-9 relative (different join orders
  legitimately re-associate float additions).
* **Block boundaries and empty scans** -- the oracle replayed at zone-map
  block widths that leave ragged final blocks, and scans that zone maps or
  the dictionary prove empty, with their pruning counters.

The database is a dedicated small movie-ish instance (FK graph with shared
dimensions, int/float/string columns, clustered and unclustered data) so
the whole module stays fast enough for tier-1.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.schema import Column, ForeignKey, Schema, TableSchema
from repro.catalog.types import DataType
from repro.executor.executor import Executor
from repro.executor.subplan_cache import SubplanCache
from repro.plan.expressions import ColumnRef, Comparison
from repro.plan.logical import RelationRef
from repro.plan.physical import PhysicalPlan, ScanNode
from repro.reopt.registry import REOPT_ALGORITHMS, make_algorithm
from repro.storage.database import Database, IndexConfig
from repro.storage.dictionary import translate_filters
from repro.storage.table import DataTable
from repro.workloads.sqlgen import (
    AggregateSamplerConfig,
    JoinSamplerConfig,
    PredicateSamplerConfig,
    RandomQueryGenerator,
)
from tests.reference_eval import (
    assert_results_match,
    canonicalize_table,
    reference_execute,
)

SEED = 20260729

DIFF_SCHEMA = Schema([
    TableSchema("movie", [Column("id", DataType.INT),
                          Column("year", DataType.INT),
                          Column("rating", DataType.FLOAT),
                          Column("kind", DataType.STRING)],
                primary_key="id"),
    TableSchema("keyword", [Column("id", DataType.INT),
                            Column("kw", DataType.STRING)],
                primary_key="id"),
    TableSchema("person", [Column("id", DataType.INT),
                           Column("age", DataType.INT),
                           Column("gender", DataType.STRING)],
                primary_key="id"),
    TableSchema("movie_kw", [Column("id", DataType.INT),
                             Column("movie_id", DataType.INT),
                             Column("keyword_id", DataType.INT),
                             Column("weight", DataType.FLOAT)],
                primary_key="id",
                foreign_keys=[ForeignKey("movie_id", "movie", "id"),
                              ForeignKey("keyword_id", "keyword", "id")]),
    TableSchema("cast_info", [Column("id", DataType.INT),
                              Column("movie_id", DataType.INT),
                              Column("person_id", DataType.INT),
                              Column("salary", DataType.FLOAT),
                              Column("note", DataType.STRING)],
                primary_key="id",
                foreign_keys=[ForeignKey("movie_id", "movie", "id"),
                              ForeignKey("person_id", "person", "id")]),
])


def build_differential_database(seed: int = SEED,
                                block_size: int = 64,
                                dict_encode: bool = True) -> Database:
    """Small, null-free database with a shared-dimension FK graph.

    ``block_size=64`` deliberately makes many blocks, so the zone-map
    pruning path is exercised by almost every generated filter.
    ``dict_encode=False`` stores string columns raw (the pre-dictionary
    baseline representation).
    """
    rng = np.random.default_rng(seed)
    n_movie, n_kw, n_person, n_mk, n_ci = 150, 25, 80, 500, 700
    db = Database(DIFF_SCHEMA, index_config=IndexConfig.PK_FK,
                  block_size=block_size, dict_encode=dict_encode)
    db.load_table(DataTable("movie", {
        "id": np.arange(1, n_movie + 1),
        "year": rng.integers(1960, 2026, n_movie),
        "rating": np.round(rng.uniform(1.0, 10.0, n_movie), 3),
        "kind": rng.choice(np.array(["movie", "tv", "short", "doc"],
                                    dtype=object), n_movie),
    }))
    db.load_table(DataTable("keyword", {
        "id": np.arange(1, n_kw + 1),
        "kw": np.array([f"kw_{i:03d}" for i in range(n_kw)], dtype=object),
    }))
    db.load_table(DataTable("person", {
        "id": np.arange(1, n_person + 1),
        "age": rng.integers(15, 90, n_person),
        "gender": rng.choice(np.array(["m", "f", "x"], dtype=object), n_person),
    }))
    db.load_table(DataTable("movie_kw", {
        "id": np.arange(1, n_mk + 1),
        "movie_id": rng.integers(1, n_movie + 1, n_mk),
        "keyword_id": rng.integers(1, n_kw + 1, n_mk),
        "weight": np.round(rng.uniform(0.0, 1.0, n_mk), 3),
    }))
    db.load_table(DataTable("cast_info", {
        "id": np.arange(1, n_ci + 1),
        "movie_id": rng.integers(1, n_movie + 1, n_ci),
        "person_id": rng.integers(1, n_person + 1, n_ci),
        "salary": np.round(rng.uniform(1e3, 1e6, n_ci), 2),
        "note": rng.choice(np.array(["", "(voice)", "(producer)", "(uncredited)"],
                                    dtype=object), n_ci),
    }))
    return db


@pytest.fixture(scope="module")
def diff_db() -> Database:
    return build_differential_database()


@pytest.fixture(scope="module")
def plain_db() -> Database:
    """The same data with string columns stored raw (no dictionary)."""
    return build_differential_database(dict_encode=False)


def make_stream(db: Database, seed: int = SEED) -> RandomQueryGenerator:
    return RandomQueryGenerator(
        db, seed=seed,
        join_config=JoinSamplerConfig(max_joins=3, min_joins=0, fk_only=False),
        predicate_config=PredicateSamplerConfig(max_predicates=3),
        aggregate_config=AggregateSamplerConfig(group_by_probability=0.3),
        name_prefix="diff",
    )


class TestDifferentialOracle:
    @pytest.mark.parametrize("dict_encode", [False, True],
                             ids=["dict-off", "dict-on"])
    def test_200_generated_queries_match_reference(self, diff_db, plain_db,
                                                   dict_encode):
        """Two passes over the same 200-query stream: raw strings and
        dictionary codes must both match the row-at-a-time oracle -- which
        also makes the two string representations transitively
        equivalent on every query."""
        db = diff_db if dict_encode else plain_db
        generator = make_stream(db)
        runner = make_algorithm("Default", db)
        for index in range(200):
            query = generator.query_at(index)
            expected = reference_execute(db, query)
            report = runner.run(query)
            assert report.final_table is not None, (SEED, index)
            actual = canonicalize_table(report.final_table)
            assert_results_match(
                expected, actual,
                context=f"query (seed={SEED}, index={index}, "
                        f"dict_encode={dict_encode}) [{query.name}]")

    def test_oracle_catches_an_injected_fault(self, diff_db):
        """Sanity: the harness is actually able to fail (no vacuous pass)."""
        generator = make_stream(diff_db)
        query = generator.query_at(0)
        expected = reference_execute(diff_db, query)
        broken = {key: dict(values, row_count=values["row_count"] + 1)
                  for key, values in expected.items()}
        with pytest.raises(AssertionError):
            assert_results_match(broken, {k: dict(v) for k, v in expected.items()},
                                 context="injected")


class TestBlockBoundaryOracle:
    #: Zone-map block widths that do not divide the table sizes (150-700
    #: rows): one-row blocks, ragged final blocks whose surviving runs
    #: start and stop mid-table, and one partial block wider than any table.
    BLOCK_SIZES = (1, 17, 256, 1024)

    @pytest.mark.parametrize("dict_encode", [False, True],
                             ids=["dict-off", "dict-on"])
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_generated_queries_match_reference(self, block_size, dict_encode):
        db = build_differential_database(block_size=block_size,
                                         dict_encode=dict_encode)
        generator = make_stream(db, seed=SEED + block_size)
        runner = make_algorithm("Default", db)
        for index in range(40):
            query = generator.query_at(index)
            report = runner.run(query)
            assert report.final_table is not None, (block_size, index)
            assert_results_match(
                reference_execute(db, query),
                canonicalize_table(report.final_table),
                context=f"block_size={block_size}, dict_encode={dict_encode}, "
                        f"seed={SEED + block_size}, index={index} "
                        f"[{query.name}]")


def _single_scan_plan(table_name: str, filters: tuple) -> PhysicalPlan:
    return PhysicalPlan(
        query_name=f"scan-{table_name}",
        root=ScanNode(relation=RelationRef.base(table_name, table_name),
                      filters=filters),
        output_columns=(ColumnRef(table_name, "id"),))


class TestScanEdgeCases:
    #: Conjunctions no row satisfies, decided three different ways.
    EMPTY_SCANS = {
        # Every block's year zone lies below the literal.
        "zone-maps-prune-every-block": (
            "movie", Comparison(ColumnRef("movie", "year"), ">", 5000)),
        # The dictionary holds no such string: decided before any read.
        "dictionary-proves-impossible": (
            "movie", Comparison(ColumnRef("movie", "kind"), "=",
                                "no-such-kind")),
        "float-below-every-zone": (
            "cast_info", Comparison(ColumnRef("cast_info", "salary"), "<",
                                    -1.0)),
    }

    @pytest.mark.parametrize("case", sorted(EMPTY_SCANS))
    def test_empty_scans_read_no_block(self, diff_db, case):
        table_name, predicate = self.EMPTY_SCANS[case]
        result = Executor(diff_db).execute(
            _single_scan_plan(table_name, (predicate,)))
        blocks = diff_db.table(table_name).zone_maps.num_blocks
        assert result.table.num_rows == 0
        assert result.scan_blocks_total == result.scan_blocks_pruned == blocks
        assert result.fused_rows_touched == 0
        impossible = case == "dictionary-proves-impossible"
        assert result.dict_predicates == int(impossible)
        assert result.fused_predicates == int(not impossible)

    def test_scan_counters_follow_the_zone_maps(self, diff_db):
        """A two-predicate scan: the pruning counters equal the zone maps'
        own verdict, the kernel touches only rows of surviving blocks, and
        a second execution reports the same counters."""
        filters = (Comparison(ColumnRef("cast_info", "id"), "<=", 300),
                   Comparison(ColumnRef("cast_info", "note"), "!=",
                              "(voice)"))
        table = diff_db.table("cast_info")
        zone_maps = table.zone_maps
        storage_name = lambda ref: ref.column
        translated, impossible, _ = translate_filters(filters, table,
                                                      storage_name)
        assert not impossible
        survivors = zone_maps.candidate_blocks(translated, storage_name)
        surviving_rows = sum(
            zone_maps.block_bounds(block)[1] - zone_maps.block_bounds(block)[0]
            for block in np.nonzero(survivors)[0])
        plan = _single_scan_plan("cast_info", filters)

        first = Executor(diff_db).execute(plan)
        second = Executor(diff_db).execute(plan)
        assert first.scan_blocks_total == zone_maps.num_blocks
        assert first.scan_blocks_pruned == zone_maps.num_blocks - survivors.sum()
        assert 0 < first.scan_blocks_pruned < first.scan_blocks_total
        assert first.fused_predicates == 2
        assert surviving_rows <= first.fused_rows_touched < 2 * surviving_rows
        ids = table.column("id")
        notes = np.asarray(table.column_values("note"))
        assert first.table.num_rows == int(((ids <= 300)
                                            & (notes != "(voice)")).sum())
        for counter in ("scan_blocks_total", "scan_blocks_pruned",
                        "fused_rows_touched", "fused_predicates",
                        "dict_predicates", "materialized_bytes"):
            assert getattr(first, counter) == getattr(second, counter), counter


class TestCrossPolicyEquivalence:
    POLICIES = REOPT_ALGORITHMS + ("Default",)

    def test_all_policies_bitwise_equal_with_and_without_cache(self, diff_db):
        generator = make_stream(diff_db, seed=SEED + 1)
        queries = generator.generate(50)
        reference: list = [None] * len(queries)

        shared_cache = SubplanCache()
        for policy in self.POLICIES:
            for cache in (None, shared_cache):
                runner = make_algorithm(policy, diff_db, subplan_cache=cache)
                for index, query in enumerate(queries):
                    report = runner.run(query)
                    assert not report.timed_out, (policy, index)
                    result = canonicalize_table(report.final_table)
                    if reference[index] is None:
                        reference[index] = result
                    else:
                        assert_results_match(
                            reference[index], result,
                            context=f"policy {policy} "
                                    f"(cache={'shared' if cache else 'off'}, "
                                    f"seed={SEED + 1}, index={index})")
        # The shared cache must have been exercised, not bypassed.
        assert shared_cache.hits > 0


class TestTpchOracle:
    """TPC-H itself against the row-at-a-time oracle, policy by policy.

    Every query but q9 at a scale the oracle's nested loops finish in
    seconds: string group keys, filters on dictionary codes, temporaries
    that carry codes into the next iteration, and the aggregation kernel on
    all of them, under the default engine and with raw strings and no zone
    maps.  q9 has a cyclic join graph and is pinned on its own below,
    because QuerySplit answers it wrongly (ROADMAP.md item 1).
    """

    POLICIES = ("QuerySplit", "Default", "Reopt", "Pop")
    SCALE = 0.2

    @pytest.fixture(scope="class")
    def queries(self):
        from repro.workloads.tpch import tpch_queries

        return [q for q in tpch_queries() if q.name != "tpch-q9"]

    @pytest.fixture(scope="class")
    def tpch_db(self):
        from repro.workloads.tpch import build_tpch_database

        return build_tpch_database(scale=self.SCALE)

    @pytest.fixture(scope="class")
    def expected(self, tpch_db, queries):
        return {q.name: reference_execute(tpch_db, q) for q in queries}

    @staticmethod
    def _check(runner, queries, expected, context: str) -> None:
        for query in queries:
            report = runner.run(query)
            assert report.final_table is not None, (context, query.name)
            assert_results_match(expected[query.name],
                                 canonicalize_table(report.final_table),
                                 context=f"{context} [{query.name}]")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_default_engine(self, tpch_db, queries, expected, policy):
        assert any(len(groups) > 1 for groups in expected.values())
        self._check(make_algorithm(policy, tpch_db), queries, expected, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_hot_path_off(self, queries, expected, policy):
        from repro.workloads.tpch import build_tpch_database

        plain = build_tpch_database(scale=self.SCALE, dict_encode=False,
                                    block_size=0)
        self._check(make_algorithm(policy, plain), queries, expected,
                    f"{policy}, hot path off")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_shared_subplan_cache(self, tpch_db, queries, expected, policy):
        """Two passes through one SubplanCache: every executed subtree,
        probe-side scans of hash joins included, may be stored and served
        back, and neither pass may change an answer."""
        cache = SubplanCache()
        runner = make_algorithm(policy, tpch_db, subplan_cache=cache)
        self._check(runner, queries, expected, f"{policy}, cache cold")
        stored = len(cache)
        assert stored > 0
        hits = cache.hits
        self._check(runner, queries, expected, f"{policy}, cache warm")
        assert cache.hits > hits
        assert cache.check_invariants() == []

    @pytest.mark.parametrize("policy", [
        pytest.param("QuerySplit", marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP.md item 1: QuerySplit answers q9's cyclic join "
                   "graph wrongly (profit 1.85e8 where the oracle gives "
                   "5.18e6 for NATION_00019 at scale 0.2)")),
        "Default", "Reopt", "Pop"])
    def test_q9_cyclic_join_graph(self, tpch_db, policy):
        """q9 joins lineitem, partsupp, part and supplier in a cycle
        (l-p, l-s, ps-p, ps-s)."""
        from repro.workloads.tpch import tpch_queries

        q9 = next(q for q in tpch_queries() if q.name == "tpch-q9")
        self._check(make_algorithm(policy, tpch_db), [q9],
                    {q9.name: reference_execute(tpch_db, q9)}, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_aggregate_folded_into_the_spj_block_is_grouped(
            self, tpch_db, queries, expected, policy):
        """An SPJ block with projections *and* aggregates groups by its
        projections under every policy (the plan-root Aggregate used to
        scalar-aggregate it while QuerySplit's _finalize grouped)."""
        from dataclasses import replace

        from repro.plan.logical import Query

        q12 = next(q for q in queries if q.name == "tpch-q12")
        folded = Query.from_spj(replace(q12.root.child.query,
                                        projections=q12.root.group_by,
                                        aggregates=q12.root.aggregates))
        assert len(expected["tpch-q12"]) > 1
        report = make_algorithm(policy, tpch_db).run(folded)
        assert_results_match(expected["tpch-q12"],
                             canonicalize_table(report.final_table),
                             context=f"{policy}, folded q12")


class TestTempStatisticsCoverage:
    """Temp ANALYZE skips columns; the estimator must never notice.

    Every per-column statistic the planner reads from a temporary must have
    been analyzed (no lookup falls back to the unanalyzed default), and for
    temporaries small enough not to be sampled each analyzed column's
    statistics equal what analyzing the whole temporary would have given.
    """

    POLICIES = ("QuerySplit", "Reopt", "Pop")

    @pytest.fixture()
    def recording(self, monkeypatch):
        """Patch in the two checks; returns their counters."""
        from repro.catalog.analyze import DEFAULT_SAMPLE_ROWS, analyze_table
        from repro.optimizer.cardinality import DefaultCardinalityEstimator
        from tests.test_catalog import assert_column_stats_equal

        seen = {"lookups": 0, "temps": 0, "skipped": 0}

        class RecordingEstimator(DefaultCardinalityEstimator):
            def column_stats(self, relation, ref):
                if relation.is_temp:
                    seen["lookups"] += 1
                    analyzed = self.database.stats(relation.table_name).columns
                    assert ref.qualified in analyzed, (
                        f"{ref.qualified} of {relation} was never analyzed")
                return super().column_stats(relation, ref)

        register_temp = Database.register_temp

        def checking_register(database, table, stats, aliases):
            seen["temps"] += 1
            seen["skipped"] += len(table.columns) - len(stats.columns)
            if table.num_rows <= DEFAULT_SAMPLE_ROWS:
                full = analyze_table(table)
                assert stats.num_rows == full.num_rows
                for name, column in stats.columns.items():
                    assert_column_stats_equal(column, full.columns[name],
                                              f"{table.name}.{name}")
            return register_temp(database, table, stats, aliases)

        monkeypatch.setattr(Database, "register_temp", checking_register)
        seen["estimator"] = RecordingEstimator
        return seen

    def test_generated_stream(self, diff_db, recording):
        generator = make_stream(diff_db)
        for policy in self.POLICIES:
            runner = make_algorithm(policy, diff_db,
                                    estimator=recording["estimator"](diff_db))
            for index in range(200):
                report = runner.run(generator.query_at(index))
                assert not report.timed_out, (policy, index)
        assert recording["temps"] and recording["lookups"]
        assert recording["skipped"]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_job_smoke_subset(self, imdb_db, recording, policy):
        """Every seventh JOB query (the e2e benchmark's smoke subset)."""
        from repro.workloads.job_queries import job_queries

        runner = make_algorithm(policy, imdb_db,
                                estimator=recording["estimator"](imdb_db))
        for query in job_queries()[::7]:
            assert not runner.run(query).timed_out, (policy, query.name)
        assert recording["temps"] and recording["lookups"]
        assert recording["skipped"]
