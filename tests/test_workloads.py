"""Tests for the synthetic workload generators and the query catalogues."""

import numpy as np
import pytest

from repro.core.qsa import QSAStrategy, generate_subqueries
from repro.core.subquery import covers
from repro.storage.database import IndexConfig
from repro.workloads.datagen import (
    categorical,
    correlated_ints,
    sequential_ids,
    skewed_fanout_choice,
    string_pool,
    zipf_choice,
)
from repro.workloads.dsb import DSB_SCHEMA, build_dsb_database, dsb_queries, \
    dsb_nonspj_queries, dsb_spj_queries
from repro.workloads.imdb import BASE_SIZES, IMDB_SCHEMA, build_imdb_database
from repro.workloads.job_queries import job_queries
from repro.workloads.spec import build_spj, col, eq, gt, isin, like
from repro.workloads.tpch import TPCH_SCHEMA, build_tpch_database, tpch_queries


class TestDatagen:
    def test_zipf_choice_skews_to_small_ranks(self):
        rng = np.random.default_rng(0)
        draws = zipf_choice(rng, 100, 10_000, skew=1.5)
        counts = np.bincount(draws, minlength=100)
        assert counts[0] > counts[50] > 0 or counts[50] == 0
        assert counts[0] > 10_000 / 100

    def test_skewed_fanout_bounded(self):
        rng = np.random.default_rng(0)
        draws = skewed_fanout_choice(rng, 1000, 100_000, sigma=1.5, cap_factor=20)
        counts = np.bincount(draws, minlength=1000)
        assert counts.max() <= 20 * counts.mean() * 1.5
        assert counts[0] >= counts[-1]

    def test_correlated_ints_monotone_at_full_correlation(self):
        rng = np.random.default_rng(0)
        base = np.arange(1000, dtype=float)
        values = correlated_ints(rng, base, 0, 100, correlation=1.0)
        assert values[0] <= values[-1]
        assert np.corrcoef(base, values)[0, 1] > 0.95

    def test_categorical_respects_probabilities(self):
        rng = np.random.default_rng(0)
        values = categorical(rng, ["a", "b"], [0.9, 0.1], 10_000)
        assert (values == "a").mean() > 0.8

    def test_categorical_equals_the_masked_assignment_loop(self):
        """One pool indexed by the draws stores what the per-value loop
        stored, for the same RNG state."""
        values = ["", "(voice)", None, "b", "a"]
        probabilities = [0.4, 0.2, 0.2, 0.1, 0.1]
        rng = np.random.default_rng(11)
        got = categorical(rng, values, probabilities, 5000)
        after = rng.random()
        rng = np.random.default_rng(11)
        probs = np.asarray(probabilities, dtype=float)
        idx = rng.choice(len(values), size=5000, p=probs / probs.sum())
        expected = np.empty(5000, dtype=object)
        for i, value in enumerate(values):
            expected[idx == i] = value
        assert got.dtype == object
        assert [(type(v), v) for v in got] == [(type(v), v) for v in expected]
        assert rng.random() == after

    def test_string_pool_and_ids(self):
        pool = string_pool("x", 5)
        assert list(pool) == [f"x_{i:05d}" for i in range(5)]
        assert list(sequential_ids(3, start=7)) == [7, 8, 9]


class TestSpecBuilders:
    def test_col_parsing(self):
        ref = col("t.production_year")
        assert ref.alias == "t" and ref.column == "production_year"
        with pytest.raises(ValueError):
            col("unqualified")

    def test_predicate_shorthands(self):
        assert eq("t.x", 5).op == "="
        assert gt("t.x", 5).op == ">"
        assert like("t.s", "abc").needle == "abc"
        assert isin("t.x", [1, 2]).values == (1, 2)

    def test_build_spj_outputs(self):
        spj = build_spj(name="q", relations={"a": "t", "b": "mk"},
                        joins=[("b.movie_id", "a.id")],
                        min_outputs=["a.title"])
        assert spj.num_joins == 1
        names = [agg.output_name for agg in spj.aggregates]
        assert "row_count" in names and "min_a_title" in names


class TestIMDBWorkload:
    def test_all_tables_loaded_with_expected_scale(self, imdb_db):
        for table_name, base_size in BASE_SIZES.items():
            table = imdb_db.table(table_name)
            expected = max(int(round(base_size * 0.25)), 4)
            assert table.num_rows == expected

    def test_deterministic_generation(self):
        a = build_imdb_database(scale=0.05, seed=42)
        b = build_imdb_database(scale=0.05, seed=42)
        assert np.array_equal(a.table("cast_info").column("movie_id"),
                              b.table("cast_info").column("movie_id"))

    def test_foreign_keys_reference_existing_rows(self, imdb_db):
        titles = set(imdb_db.table("title").column("id").tolist())
        assert set(imdb_db.table("movie_keyword").column("movie_id").tolist()) <= titles
        assert set(imdb_db.table("cast_info").column("movie_id").tolist()) <= titles

    def test_fanout_skew_present(self, imdb_db):
        movie_ids = imdb_db.table("cast_info").column("movie_id")
        counts = np.bincount(movie_ids)
        counts = counts[counts > 0]
        assert counts.max() > 5 * counts.mean()

    def test_year_correlated_with_popularity(self, imdb_db):
        """Popular (high fan-out) titles skew recent."""
        ci = imdb_db.table("cast_info").column("movie_id")
        title = imdb_db.table("title")
        years = dict(zip(title.column("id").tolist(),
                         title.column("production_year").tolist()))
        counts = np.bincount(ci, minlength=int(title.column("id").max()) + 1)
        hot = np.argsort(counts)[-50:]
        cold = [i for i in title.column("id") if counts[i] == 1][:50]
        hot_years = np.mean([years[i] for i in hot if i in years])
        cold_years = np.mean([years[i] for i in cold if i in years])
        assert hot_years > cold_years

    def test_index_configuration(self):
        pk_only = build_imdb_database(scale=0.05, index_config=IndexConfig.PK_ONLY)
        assert pk_only.has_index("title", "id")
        assert not pk_only.has_index("movie_keyword", "movie_id")


class TestJOBQueries:
    def test_91_queries(self):
        assert len(job_queries()) == 91

    def test_unique_names_and_families(self):
        queries = job_queries()
        names = [q.name for q in queries]
        assert len(names) == len(set(names))
        families = {q.metadata["family"] for q in queries}
        assert families == set(range(1, 32))

    def test_queries_are_spj_with_min_outputs(self):
        for query in job_queries():
            assert query.is_spj
            assert query.spj.aggregates
            assert query.spj.is_connected()

    def test_query_relations_exist_in_schema(self):
        for query in job_queries():
            for relation in query.spj.relations:
                assert IMDB_SCHEMA.has_table(relation.table_name), query.name

    def test_query_columns_exist_in_schema(self):
        for query in job_queries():
            table_of = {r.alias: r.table_name for r in query.spj.relations}
            for ref in (*query.spj.output_columns(),
                        *(ref for pred in query.spj.filters for ref in pred.column_refs()),
                        *(ref for pred in query.spj.join_predicates
                          for ref in (pred.left, pred.right))):
                table = IMDB_SCHEMA.table(table_of[ref.alias])
                assert table.has_column(ref.column), (query.name, ref)

    def test_family_filter(self):
        subset = job_queries(families=[6])
        assert subset and all(q.metadata["family"] == 6 for q in subset)

    def test_join_sizes_span_paper_range(self):
        sizes = {len(q.spj.relations) for q in job_queries()}
        assert min(sizes) == 3
        assert max(sizes) >= 9

    def test_most_queries_return_rows(self, imdb_db):
        """The large majority of the catalogue must be non-empty on the data."""
        from repro.reopt import make_algorithm

        sample = job_queries(families=[1, 2, 3, 4, 6, 8, 14])
        non_empty = 0
        for query in sample:
            report = make_algorithm("Default", imdb_db).run(query)
            count = report.final_table.to_rows()[0][0]
            if count > 0:
                non_empty += 1
        assert non_empty >= len(sample) * 0.6


class TestTPCHWorkload:
    def test_schema_and_sizes(self):
        db = build_tpch_database(scale=0.1)
        assert db.table("region").num_rows == 5
        assert db.table("nation").num_rows == 25
        assert db.table("lineitem").num_rows == 6000

    def test_22_queries_all_nonspj(self):
        queries = tpch_queries()
        assert len(queries) == 22
        assert all(not q.is_spj for q in queries)

    def test_star_schema_joins_are_pk_fk(self):
        for query in tpch_queries():
            for spj in query.root.spj_leaves():
                table_of = {r.alias: r.table_name for r in spj.relations}
                for pred in spj.join_predicates:
                    kind = TPCH_SCHEMA.join_kind(
                        table_of[pred.left.alias], pred.left.column,
                        table_of[pred.right.alias], pred.right.column)
                    assert kind in ("pk-fk", "fk-fk"), (query.name, pred)

    def test_tpch_query_executes(self):
        from repro.reopt import make_algorithm

        db = build_tpch_database(scale=0.1)
        report = make_algorithm("QuerySplit", db).run(tpch_queries()[2])  # Q3
        assert not report.timed_out
        assert report.final_rows > 0


class TestDSBWorkload:
    def test_sizes_and_schema(self):
        db = build_dsb_database(scale=0.1)
        assert db.table("store_sales").num_rows == 5000
        assert DSB_SCHEMA.has_table("catalog_sales")

    def test_query_counts(self):
        assert len(dsb_spj_queries()) == 15
        assert len(dsb_nonspj_queries()) == 10
        assert len(dsb_queries()) == 25

    def test_spj_queries_cover_fact_fact_patterns(self):
        multi_fact = [
            q for q in dsb_spj_queries()
            if sum(1 for r in q.spj.relations
                   if r.table_name in ("store_sales", "catalog_sales", "web_sales",
                                       "store_returns")) >= 2
        ]
        assert len(multi_fact) >= 3

    def test_dsb_query_executes_consistently(self):
        from repro.reopt import make_algorithm

        db = build_dsb_database(scale=0.15)
        query = dsb_spj_queries()[0]
        results = {
            name: make_algorithm(name, db).run(query).final_table.to_rows()
            for name in ("Default", "QuerySplit", "Pop")
        }
        assert results["Default"] == results["QuerySplit"] == results["Pop"]

    def test_fkcenter_covers_dsb_queries(self):
        for query in dsb_spj_queries():
            subqueries = generate_subqueries(query.spj, DSB_SCHEMA,
                                             QSAStrategy.FK_CENTER)
            assert covers(subqueries, query.spj), query.name
