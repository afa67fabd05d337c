"""Base tables are load-once: nothing writes them after ``load_table``.

``Database.load_table`` encodes, analyzes and indexes a base table, and
from then on the engine only reads it.  Several layers rely on
that without checking it at run time:

* session views share tables, statistics and indexes by reference;
* a ``SubplanCache`` entry stays valid for the life of its database;
* dictionaries and statistics built at load time stay exact.

These tests run every registered algorithm, queries aborted by the
join-size cap, a shared cache and a served stream over the differential
database and check that every piece of loaded state is unchanged
afterwards.  They also check two read paths that take every stored row
as live: identity scans and the true-cardinality oracle.
"""

from __future__ import annotations

import copy
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from repro.executor import joins
from repro.executor.chunk import MaterializationStats
from repro.executor.operators import ExecContext, Scan
from repro.executor.executor import Executor
from repro.executor.subplan_cache import SubplanCache
from repro.optimizer.cardinality import MIN_ROWS
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.oracle import OracleCardinalityEstimator, TrueCardinalityOracle
from repro.plan.expressions import ColumnRef, Comparison
from repro.plan.logical import AggregateNode, RelationRef, SPJQuery
from repro.plan.physical import ScanNode
from repro.reopt.registry import ALGORITHM_NAMES, REOPT_ALGORITHMS, make_algorithm
from repro.serving.admission import AdmissionPolicy
from repro.serving.driver import run_served
from repro.serving.schedule import build_arrivals, uniform_users
from repro.serving.server import ServingConfig
from repro.workloads.job_queries import job_queries
from tests.reference_eval import (
    _join_rows,
    assert_results_match,
    canonicalize_table,
    reference_execute,
)
from tests.test_catalog import assert_column_stats_equal
from tests.test_differential import SEED, build_differential_database, make_stream


def _snapshot(db) -> dict:
    """Every piece of loaded state, by object and by copied content."""
    state = {}
    for name in db.base_table_names:
        table = db.table(name)
        state[name] = {
            "table": table,
            "arrays": dict(table.columns),
            "columns": {c: a.copy() for c, a in table.columns.items()},
            "dictionaries": dict(table.dictionaries),
            "dictionary_values": {c: d.copy()
                                  for c, d in table.dictionaries.items()},
            "stats": db.stats(name),
            "stats_copy": copy.deepcopy(db.stats(name)),
            "indexes": {c: db.index(name, c) for c in table.columns},
            "matches": {c: index.lookup_batch(table.column(c))
                        for c in table.columns
                        if (index := db.index(name, c)) is not None},
        }
    return state


def _assert_unchanged(db, before: dict) -> None:
    assert db.temp_table_names == []
    assert db.base_table_names == list(before)
    for name, old in before.items():
        table = db.table(name)
        assert table is old["table"], name
        for column, array in table.columns.items():
            assert array is old["arrays"][column], (name, column)
            assert np.array_equal(array, old["columns"][column]), (name, column)
        for column, dictionary in table.dictionaries.items():
            assert dictionary is old["dictionaries"][column], (name, column)
            assert np.array_equal(dictionary,
                                  old["dictionary_values"][column])
        stats = db.stats(name)
        assert stats is old["stats"], name
        assert stats.num_rows == old["stats_copy"].num_rows == table.num_rows
        for column, column_stats in old["stats_copy"].columns.items():
            assert_column_stats_equal(stats.columns[column], column_stats,
                                      f"{name}.{column}")
        for column, index in old["indexes"].items():
            assert db.index(name, column) is index, (name, column)
        for column, (positions, row_ids) in old["matches"].items():
            now = db.index(name, column).lookup_batch(table.column(column))
            assert np.array_equal(now[0], positions), (name, column)
            assert np.array_equal(now[1], row_ids), (name, column)


@pytest.fixture()
def fresh_db():
    """A private database: these tests must see only their own reads."""
    return build_differential_database()


class TestNothingWritesBaseTables:
    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_generated_stream_leaves_loaded_state_unchanged(self, fresh_db,
                                                            algorithm):
        before = _snapshot(fresh_db)
        runner = make_algorithm(algorithm, fresh_db)
        generator = make_stream(fresh_db)
        for index in range(25):
            assert not runner.run(generator.query_at(index)).timed_out, index
        _assert_unchanged(fresh_db, before)

    @pytest.mark.parametrize("algorithm", REOPT_ALGORITHMS)
    def test_join_overflow_leaves_loaded_state_unchanged(self, fresh_db,
                                                         algorithm,
                                                         monkeypatch):
        """Queries aborted by the join-size cap drop their temporaries and
        leave every loaded table as it was, and the same runner then
        answers a query correctly.  At this cap, Pop, IEF and Perron19
        abort every such query after materializing a temporary."""
        before = _snapshot(fresh_db)
        runner = make_algorithm(algorithm, fresh_db)
        generator = make_stream(fresh_db)
        monkeypatch.setattr(joins, "MAX_JOIN_RESULT_ROWS", 800)
        aborted = [runner.run(generator.query_at(index)).timed_out
                   for index in range(60)]
        monkeypatch.undo()
        assert any(aborted) and not all(aborted)
        _assert_unchanged(fresh_db, before)
        query = generator.query_at(0)
        assert_results_match(reference_execute(fresh_db, query),
                             canonicalize_table(runner.run(query).final_table),
                             context=f"{algorithm} after overflows")

    def test_shared_subplan_cache_leaves_loaded_state_unchanged(self, fresh_db):
        """Cached chunks hold the base tables; serving them back across
        policies must not write through to the tables."""
        before = _snapshot(fresh_db)
        cache = SubplanCache()
        queries = make_stream(fresh_db, seed=SEED + 3).generate(20)
        for algorithm in ("QuerySplit", "Default", "Reopt", "Optimal"):
            runner = make_algorithm(algorithm, fresh_db, subplan_cache=cache)
            for query in queries:
                runner.run(query)
        assert cache.hits > 0
        assert cache.check_invariants() == []
        _assert_unchanged(fresh_db, before)

    def test_served_stream_leaves_loaded_state_unchanged(self, fresh_db):
        """Two workers on session views of one database share its tables."""
        before = _snapshot(fresh_db)
        queries = make_stream(fresh_db, seed=SEED + 4).generate(16)
        arrivals = build_arrivals(uniform_users(4, 200.0, 4), seed=SEED + 4,
                                  max_events=16)
        config = ServingConfig(workers=2, queue_capacity=4,
                               admission=AdmissionPolicy.BLOCK,
                               timeout_seconds=30.0,
                               subplan_cache=SubplanCache())
        result = run_served(fresh_db, queries, arrivals, config,
                            time_scale=0.01)
        assert result.summary["completed"] == 16
        assert result.summary["errors"] == 0
        _assert_unchanged(fresh_db, before)


class _Unreadable:
    """A stand-in database that fails on any attribute read but ``origin``."""

    def __init__(self):
        object.__setattr__(self, "origin", self)

    def __getattribute__(self, name):
        if name == "origin":
            return object.__getattribute__(self, name)
        raise AssertionError(f"the cache read database.{name}")


class TestSubplanCacheNeedsNoDatabase:
    def test_lookups_and_stores_never_read_the_database(self, fresh_db):
        """``bind`` is the cache's only contact with its database: get, put,
        peek and the invariant check never call into it under the lock."""
        scan = ScanNode(relation=RelationRef.base("movie", "movie"), filters=())
        chunk = Scan(scan).execute(
            ExecContext(database=fresh_db, stats=MaterializationStats()))
        signature = scan.signature()
        cache = SubplanCache()
        cache.bind(_Unreadable())
        assert cache.get(signature) is None
        cache.put(signature, chunk)
        assert cache.peek(signature) is chunk
        assert cache.get(signature) is chunk
        assert (cache.hits, cache.misses, cache.rejected, len(cache)) == (1, 1, 0, 1)
        assert cache.check_invariants() == []


class TestIdentityScans:
    """A scan that selects every row hands out no row-id vector."""

    @pytest.mark.parametrize("filters", [
        (),
        # The dictionary proves the conjunct true for every row.
        (Comparison(ColumnRef("movie", "kind"), "!=", "no-such-kind"),),
    ], ids=["no-filter", "tautological-filter"])
    def test_every_row_is_selected_by_reference(self, fresh_db, filters):
        ctx = ExecContext(database=fresh_db, stats=MaterializationStats())
        chunk = Scan(ScanNode(relation=RelationRef.base("movie", "movie"),
                              filters=filters)).execute(ctx)
        [source] = chunk.sources
        assert source.row_ids is None
        assert chunk.num_rows == fresh_db.table("movie").num_rows
        assert ctx.fused_predicates == 0


class TestOracleAgainstReference:
    """True cardinalities of every sub-join equal the row-at-a-time count."""

    def test_every_subset_of_generated_queries(self):
        db = build_differential_database()
        oracle = TrueCardinalityOracle(db)
        generator = make_stream(db, seed=SEED + 5)
        checked = 0
        for index in range(15):
            query = generator.query_at(index)
            spj = (query.root.child.query
                   if isinstance(query.root, AggregateNode) else query.spj)
            # Increasing size, as the enumerator asks: larger subsets extend
            # the oracle's cached smaller ones.
            for size in range(1, len(spj.relations) + 1):
                for subset in itertools.combinations(spj.relations, size):
                    aliases = {relation.alias for relation in subset}
                    joins = tuple(pred for pred in spj.join_predicates
                                  if pred.aliases() <= aliases)
                    expected = len(_join_rows(db, SimpleNamespace(
                        relations=subset, join_predicates=joins,
                        filters_for=spj.filters_for)))
                    rows = oracle.true_rows(subset, spj.filters, joins,
                                            query_name=spj.name)
                    assert rows == max(expected, MIN_ROWS), (
                        index, sorted(aliases))
                    checked += 1
        assert checked > 50

    @pytest.mark.parametrize("name", ["24c", "30c"])
    def test_every_subset_the_planner_asks_equals_its_execution(self, imdb_db,
                                                                name):
        """Each connected sub-join the enumerator asks the oracle about
        counts exactly the rows the executor produces for it."""
        asked = []

        class Recording(OracleCardinalityEstimator):
            def estimate_rows(self, relations, filters, join_predicates,
                              query_name=""):
                rows = super().estimate_rows(relations, filters,
                                             join_predicates, query_name)
                asked.append((relations, filters, join_predicates, rows))
                return rows

        [query] = [q for q in job_queries() if q.name == name]
        optimizer = Optimizer(imdb_db)
        optimizer.with_estimator(Recording(imdb_db)).plan(query.spj)
        executor = Executor(imdb_db)
        checked = 0
        for index, (relations, filters, joins_, rows) in enumerate(asked):
            aliases = {relation.alias for relation in relations}
            if len(relations) < 2 or rows > 2_000_000 or not _connected(
                    aliases, joins_):
                continue
            sub = SPJQuery(name=f"{name}/{index}", relations=relations,
                           filters=filters, join_predicates=joins_)
            expected = executor.execute(optimizer.plan(sub)).join_rows
            assert rows == max(expected, MIN_ROWS), sorted(aliases)
            checked += 1
        assert checked > 35


def _connected(aliases: set[str], join_predicates) -> bool:
    """True if ``join_predicates`` connect every alias of ``aliases``."""
    reached, frontier = set(), [next(iter(aliases))]
    while frontier:
        alias = frontier.pop()
        if alias not in reached:
            reached.add(alias)
            frontier.extend(pred.other(alias).alias for pred in join_predicates
                            if alias in pred.aliases())
    return reached == aliases
