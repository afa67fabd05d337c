"""Tests for the seeded random workload generator (repro.workloads.sqlgen).

Covers the two hard guarantees the subsystem makes:

* **determinism** -- the stream is a pure function of (database, seed,
  configs): regenerating, slicing, and extending all reproduce identical
  queries;
* **validity** -- every generated query references only loaded tables and
  existing columns, is connected, and plans + executes without error on the
  seed databases under every registered policy.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.bench.harness import HarnessConfig, run_generated
from repro.executor.subplan_cache import SubplanCache
from repro.plan.expressions import Between, Comparison, InList, StringPrefix
from repro.reopt.registry import ALGORITHM_NAMES, make_algorithm
from repro.workloads.sqlgen import (
    AggregateSamplerConfig,
    JoinSamplerConfig,
    PredicateSamplerConfig,
    RandomQueryGenerator,
    join_edges,
)
from repro.workloads.imdb import build_imdb_database
from repro.workloads.tpch import build_tpch_database


@pytest.fixture(scope="module")
def tpch_db():
    return build_tpch_database(scale=0.1)


def make_generator(db, seed=1, **overrides):
    kwargs = dict(
        join_config=JoinSamplerConfig(max_joins=3, min_joins=1),
        predicate_config=PredicateSamplerConfig(max_predicates=3),
        aggregate_config=AggregateSamplerConfig(),
    )
    kwargs.update(overrides)
    return RandomQueryGenerator(db, seed=seed, **kwargs)


class TestJoinEdges:
    def test_pk_fk_edges_cover_all_declared_fks(self, tpch_db):
        edges = join_edges(tpch_db, fk_only=True)
        assert all(e.kind == "pk-fk" for e in edges)
        # One edge per declared FK between loaded tables (TPC-H has 9).
        assert len(edges) == 9

    def test_fk_fk_edges_added_when_requested(self, tpch_db):
        edges = join_edges(tpch_db, fk_only=False)
        fk_fk = [e for e in edges if e.kind == "fk-fk"]
        assert fk_fk, "TPC-H has shared dimensions, fk-fk edges expected"
        # lineitem and partsupp both reference part and supplier.
        pairs = {frozenset((e.left_table, e.right_table)) for e in fk_fk}
        assert frozenset(("lineitem", "partsupp")) in pairs

    def test_edges_are_deterministically_ordered(self, tpch_db):
        assert join_edges(tpch_db, fk_only=False) == join_edges(tpch_db, fk_only=False)


class TestConfigValidation:
    def test_invalid_configs_rejected_at_construction(self):
        with pytest.raises(ValueError):
            JoinSamplerConfig(max_joins=1, min_joins=2)
        with pytest.raises(ValueError):
            PredicateSamplerConfig(selectivity=(0.5, 0.1))
        with pytest.raises(ValueError):
            PredicateSamplerConfig(max_in_values=1)
        with pytest.raises(ValueError):
            AggregateSamplerConfig(functions=("median",))
        with pytest.raises(ValueError):
            AggregateSamplerConfig(group_by_probability=1.5)


class TestDeterminism:
    def test_same_seed_reproduces_identical_stream(self, tpch_db):
        a = make_generator(tpch_db, seed=42).generate(30)
        b = make_generator(tpch_db, seed=42).generate(30)
        assert a == b

    def test_stream_is_sliceable(self, tpch_db):
        generator = make_generator(tpch_db, seed=42)
        full = generator.generate(20)
        assert generator.generate(5, start=10) == full[10:15]
        assert generator.query_at(7) == full[7]

    def test_iterator_matches_generate(self, tpch_db):
        generator = make_generator(tpch_db, seed=3)
        from_iter = [query for _, query in zip(range(8), iter(generator))]
        assert from_iter == generator.generate(8)

    def test_different_seeds_differ(self, tpch_db):
        a = make_generator(tpch_db, seed=1).generate(20)
        b = make_generator(tpch_db, seed=2).generate(20)
        assert a != b

    def test_rebuilt_database_reproduces_stream(self):
        """The stream depends only on (schema + statistics, seed, configs)."""
        a = make_generator(build_tpch_database(scale=0.1), seed=5).generate(10)
        b = make_generator(build_tpch_database(scale=0.1), seed=5).generate(10)
        assert a == b


def _plain(value):
    """``value`` as nested tuples of builtins, with class names: a text that
    depends neither on the hash seed nor on numpy's scalar repr."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            _plain(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, frozenset):
        return tuple(sorted(value))
    if isinstance(value, (tuple, list)):
        return tuple(_plain(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _plain(v)) for k, v in value.items()))
    return value.item() if isinstance(value, np.generic) else value


def stream_digest(queries) -> str:
    text = "\n".join(repr(_plain(query)) for query in queries)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestPinnedStreams:
    """The first 200 queries of two streams, pinned: a change to how the
    generator samples (or caches what it samples from) must leave every
    query byte-identical."""

    def test_served_stream(self):
        """The served benchmark's stream: IMDB 0.1, seed 0, 1-3 joins."""
        generator = RandomQueryGenerator(
            build_imdb_database(scale=0.1), seed=0,
            join_config=JoinSamplerConfig(min_joins=1, max_joins=3))
        assert stream_digest(generator.generate(200)) == "083239c0547a0c7d"

    def test_fk_fk_group_by_point_drop_stream(self, tpch_db):
        generator = RandomQueryGenerator(
            tpch_db, seed=7,
            join_config=JoinSamplerConfig(max_joins=4, fk_only=False),
            aggregate_config=AggregateSamplerConfig(group_by_probability=0.3),
            predicate_config=PredicateSamplerConfig(point_drop_rate=0.5))
        assert stream_digest(generator.generate(200)) == "1bf8ba31ff183f29"


class TestPointDropKnob:
    def _equality_filters(self, queries):
        return [pred for query in queries
                for leaf in query.root.spj_leaves()
                for pred in leaf.filters
                if isinstance(pred, Comparison) and pred.op == "="]

    def test_validation(self):
        with pytest.raises(ValueError):
            PredicateSamplerConfig(point_drop_rate=1.5)
        with pytest.raises(ValueError):
            PredicateSamplerConfig(point_drop_rate=-0.1)
        with pytest.raises(ValueError):
            PredicateSamplerConfig(point_drop_rows=-1.0)

    def test_rate_zero_keeps_default_streams_byte_identical(self, tpch_db):
        """The knob must not perturb existing seeded streams when off (no
        extra rng draw happens unless the rate is positive)."""
        base = make_generator(tpch_db, seed=9).generate(40)
        explicit = make_generator(
            tpch_db, seed=9,
            predicate_config=PredicateSamplerConfig(
                max_predicates=3, point_drop_rate=0.0)).generate(40)
        assert base == explicit

    def test_full_rate_with_huge_threshold_drops_every_point_filter(self,
                                                                    tpch_db):
        """rate=1.0 with an unbounded row threshold: no equality predicate
        can survive the point branch (only the point shape emits ``=``)."""
        queries = make_generator(
            tpch_db, seed=9,
            predicate_config=PredicateSamplerConfig(
                max_predicates=3, point_drop_rate=1.0,
                point_drop_rows=1e18)).generate(80)
        assert self._equality_filters(queries) == []

    def test_default_threshold_only_drops_near_single_row_lookups(self,
                                                                  tpch_db):
        """With the default 2-row threshold the knob thins, not removes,
        the equality predicates: surviving ones are estimated to match
        more than ``point_drop_rows`` rows."""
        config = PredicateSamplerConfig(max_predicates=3,
                                        point_drop_rate=1.0)
        queries = make_generator(
            tpch_db, seed=9, predicate_config=config).generate(80)
        survivors = self._equality_filters(queries)
        baseline = self._equality_filters(
            make_generator(tpch_db, seed=9).generate(80))
        assert len(survivors) < len(baseline)
        table_of = {}
        for query in queries:
            for leaf in query.root.spj_leaves():
                table_of.update({r.alias: r.table_name
                                 for r in leaf.relations})
        for pred in survivors:
            stats = tpch_db.stats(table_of[pred.column.alias])
            column = stats.column(pred.column.column)
            expected = column.equality_selectivity(pred.value) * column.num_rows
            assert expected > config.point_drop_rows, (pred, expected)


class TestValidity:
    def test_queries_reference_schema_and_are_connected(self, tpch_db):
        generator = make_generator(
            tpch_db, seed=11,
            join_config=JoinSamplerConfig(max_joins=5, fk_only=False),
            aggregate_config=AggregateSamplerConfig(group_by_probability=0.3))
        for query in generator.generate(40):
            for spj in query.root.spj_leaves():
                assert spj.is_connected(), query.name
                table_of = {r.alias: r.table_name for r in spj.relations}
                for ref in (*spj.output_columns(),
                            *(ref for pred in spj.filters for ref in pred.column_refs()),
                            *(ref for pred in spj.join_predicates
                              for ref in (pred.left, pred.right))):
                    table = tpch_db.schema.table(table_of[ref.alias])
                    assert table.has_column(ref.column), (query.name, ref)

    def test_filters_use_supported_shapes(self, tpch_db):
        generator = make_generator(tpch_db, seed=11)
        shapes = set()
        for query in generator.generate(60):
            for pred in query.root.spj_leaves()[0].filters:
                shapes.add(type(pred))
                assert isinstance(pred, (Between, Comparison, InList, StringPrefix))
        # The stream exercises more than one predicate shape.
        assert len(shapes) >= 2

    def test_range_filters_target_selectivity(self, tpch_db):
        """Sampled BETWEEN bounds actually select rows from the real data."""
        generator = make_generator(
            tpch_db, seed=4,
            predicate_config=PredicateSamplerConfig(
                max_predicates=3, selectivity=(0.2, 0.4),
                range_weight=1.0, point_weight=0.0, in_weight=0.0,
                prefix_weight=0.0))
        checked = 0
        for query in generator.generate(40):
            spj = query.root.spj_leaves()[0]
            table_of = {r.alias: r.table_name for r in spj.relations}
            for pred in spj.filters:
                if not isinstance(pred, Between):
                    continue
                column = tpch_db.table(table_of[pred.column.alias]).column(
                    pred.column.column)
                fraction = ((column >= pred.low) & (column <= pred.high)).mean()
                assert 0.0 < fraction < 0.95, (query.name, pred, fraction)
                checked += 1
        assert checked >= 10

    def test_group_by_queries_are_nonspj_with_bounded_keys(self, tpch_db):
        generator = make_generator(
            tpch_db, seed=9,
            aggregate_config=AggregateSamplerConfig(group_by_probability=1.0,
                                                    max_group_ndv=30))
        grouped = [q for q in generator.generate(20) if not q.is_spj]
        assert grouped, "group_by_probability=1.0 must produce GROUP BY queries"
        for query in grouped:
            report = make_algorithm("Default", tpch_db).run(query)
            assert not report.timed_out
            assert report.final_table.num_rows <= 30

    def test_zero_join_queries_execute(self, tpch_db):
        generator = make_generator(
            tpch_db, seed=2,
            join_config=JoinSamplerConfig(max_joins=0, min_joins=0))
        for query in generator.generate(5):
            assert query.root.spj_leaves()[0].num_joins == 0
            report = make_algorithm("QuerySplit", tpch_db).run(query)
            assert not report.timed_out

    def test_fk_only_streams_make_nonexpanding_joins(self, tpch_db):
        generator = make_generator(tpch_db, seed=6)
        for query in generator.generate(20):
            spj = query.root.spj_leaves()[0]
            table_of = {r.alias: r.table_name for r in spj.relations}
            for pred in spj.join_predicates:
                kind = tpch_db.schema.join_kind(
                    table_of[pred.left.alias], pred.left.column,
                    table_of[pred.right.alias], pred.right.column)
                assert kind == "pk-fk", (query.name, pred)


class TestGeneratedStreamHarness:
    def test_acceptance_50_queries_under_every_policy(self, tpch_db):
        """Acceptance: a seeded 50-query TPC-H stream executes under every
        registered policy with zero execution errors, and re-running with the
        same seed reproduces the identical stream."""
        generator = make_generator(tpch_db, seed=7)
        cache = SubplanCache()
        config = HarnessConfig(timeout_seconds=60.0, subplan_cache=cache)
        for algorithm in ALGORITHM_NAMES:
            result = run_generated(generator, 50, algorithm, config)
            assert len(result.reports) == 50
            assert result.timeouts == 0, algorithm
            assert all(r.final_table is not None for r in result.reports), algorithm
        assert make_generator(tpch_db, seed=7).generate(50) == generator.generate(50)
        assert cache.hits > 0

    def test_run_generated_matches_manual_run(self, tpch_db):
        generator = make_generator(tpch_db, seed=1)
        via_harness = run_generated(generator, 3, "Default",
                                    HarnessConfig(timeout_seconds=30.0))
        for report, query in zip(via_harness.reports, generator.generate(3)):
            direct = make_algorithm("Default", tpch_db).run(query)
            assert report.final_table.to_rows() == direct.final_table.to_rows()
