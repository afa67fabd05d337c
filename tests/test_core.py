"""Unit tests for the QuerySplit core: join graph, QSA, SSA, driver, non-SPJ."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.join_graph import build_join_graph
from repro.core.nonspj import count_spj_blocks, execute_query_tree
from repro.core.qsa import QSAStrategy, generate_subqueries
from repro.core.splitter import QuerySplitConfig, QuerySplitExecutor
from repro.core.ssa import (
    CostFunction,
    SubqueryEstimate,
    phi1,
    phi2,
    phi3,
    phi4,
    phi5,
    select_subquery,
)
from repro.core.subquery import assert_covers, coverage_gaps, covers
from repro.executor.executor import Executor
from repro.optimizer.optimizer import Optimizer
from repro.plan.expressions import ColumnRef, JoinPredicate
from repro.plan.logical import (
    AggregateNode,
    AggregateSpec,
    Query,
    RelationRef,
    SPJNode,
    SPJQuery,
    UnionNode,
)
from repro.workloads.dsb import DSB_SCHEMA, dsb_queries
from repro.workloads.imdb import IMDB_SCHEMA
from repro.workloads.job_queries import job_queries
from repro.workloads.tpch import TPCH_SCHEMA, tpch_queries
from tests.conftest import five_way_query, with_implied_edges

#: Removed-edge lists of every workload query and of its twin with implied
#: edges (``tests.conftest.with_implied_edges``), recorded with the
#: ``networkx.find_cycle`` search the join graph used before its own
#: depth-first search: ``{query: removed predicates}`` for the queries (all
#: others remove nothing) and ``(edges removed, sha256 prefix of the lists)``
#: per workload for the twins.
PINNED_REMOVED_EDGES = {"tpch-q9": ["l.l_partkey = p.p_partkey"]}
PINNED_IMPLIED_EDGE_REMOVALS = {
    "job": (764, "421155a9ee0e96fd"),
    "tpch": (55, "6f6c2acbff4b59a3"),
    "dsb": (82, "a4bf1166b1130272"),
}


class TestJoinGraph:
    def test_pk_fk_edges_directed_from_fk_side(self, tiny_schema):
        graph = build_join_graph(five_way_query(), tiny_schema)
        directed = {(e.source, e.target) for e in graph.edges if not e.bidirectional}
        assert ("mk", "t") in directed
        assert ("ci", "n") in directed

    def test_centers_are_fact_tables(self, tiny_schema):
        graph = build_join_graph(five_way_query(), tiny_schema)
        assert set(graph.centers()) == {"mk", "ci"}

    def test_reversed_graph_swaps_centers(self, tiny_schema):
        graph = build_join_graph(five_way_query(), tiny_schema).reversed()
        assert set(graph.centers()) == {"t", "k", "n"}

    def test_cycle_edges_removed_preferring_bidirectional(self, tiny_schema):
        spj = five_way_query()
        # Add the redundant fk-fk edge ci.movie_id = mk.movie_id (JOB 6d cycle).
        cyclic = SPJQuery(
            name="cyclic",
            relations=spj.relations,
            filters=spj.filters,
            join_predicates=spj.join_predicates + (
                JoinPredicate(ColumnRef("ci", "movie_id"), ColumnRef("mk", "movie_id")),),
        )
        graph = build_join_graph(cyclic, tiny_schema)
        assert len(graph.removed_edges) == 1
        assert graph.removed_edges[0].bidirectional

    @pytest.mark.parametrize("workload", ["job", "tpch", "dsb"])
    def test_removed_edges_pinned(self, workload):
        schema, queries = {"job": (IMDB_SCHEMA, job_queries),
                           "tpch": (TPCH_SCHEMA, tpch_queries),
                           "dsb": (DSB_SCHEMA, dsb_queries)}[workload]
        lines = []
        for query in queries():
            for spj in query.root.spj_leaves():
                removed = build_join_graph(spj, schema).removed_edges
                assert [str(e.predicate) for e in removed] == \
                    PINNED_REMOVED_EDGES.get(query.name, []), query.name
                graph = build_join_graph(with_implied_edges(spj), schema)
                lines.append(" | ".join(str(e.predicate) for e in graph.removed_edges))
                # What is left is a forest over the same vertices.
                assert len(graph.edges) <= len(graph.vertices) - 1
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        removals = sum(line.count(" = ") for line in lines)
        assert (removals, digest) == PINNED_IMPLIED_EDGE_REMOVALS[workload]

    def test_join_graph_needs_no_graph_library(self):
        """``import repro.reopt.registry`` (every algorithm, QuerySplit's
        join graph included) loads no networkx, in a fresh process."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        probe = ("import sys, repro.reopt.registry; "
                 "print('networkx' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", probe], check=True,
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.strip() == "False"

    def test_isolated_vertices(self, tiny_schema):
        spj = SPJQuery(name="cross",
                       relations=(RelationRef.base("t", "t"), RelationRef.base("k", "k")))
        graph = build_join_graph(spj, tiny_schema)
        assert set(graph.isolated()) == {"t", "k"}


class TestCovering:
    def test_fk_center_covers(self, tiny_schema):
        spj = five_way_query()
        subqueries = generate_subqueries(spj, tiny_schema, QSAStrategy.FK_CENTER)
        assert covers(subqueries, spj)
        assert coverage_gaps(subqueries, spj) == []

    def test_missing_relation_detected(self, tiny_schema):
        spj = five_way_query()
        subqueries = generate_subqueries(spj, tiny_schema, QSAStrategy.FK_CENTER)
        gaps = coverage_gaps(subqueries[:1], spj)
        assert gaps  # dropping a subquery breaks covering
        with pytest.raises(AssertionError):
            assert_covers(subqueries[:1], spj)

    def test_transitive_join_implication(self, tiny_schema):
        """a=b and b=c imply a=c: covering accepts the transitive closure."""
        base = SPJQuery(
            name="tri",
            relations=(RelationRef.base("t", "t"), RelationRef.base("mk", "mk"),
                       RelationRef.base("ci", "ci")),
            join_predicates=(
                JoinPredicate(ColumnRef("mk", "movie_id"), ColumnRef("t", "id")),
                JoinPredicate(ColumnRef("ci", "movie_id"), ColumnRef("t", "id")),
                JoinPredicate(ColumnRef("ci", "movie_id"), ColumnRef("mk", "movie_id")),
            ),
        )
        subqueries = generate_subqueries(base, tiny_schema, QSAStrategy.FK_CENTER)
        assert covers(subqueries, base)


class TestQSA:
    def test_fk_center_shape_matches_paper_example(self, tiny_schema):
        """Figure 8: S1 = k |x| mk |x| t centred at mk, S2 = t |x| ci |x| n at ci."""
        subqueries = generate_subqueries(five_way_query(), tiny_schema,
                                         QSAStrategy.FK_CENTER)
        alias_sets = {sub.covered_aliases() for sub in subqueries}
        assert frozenset({"k", "mk", "t"}) in alias_sets
        assert frozenset({"t", "ci", "n"}) in alias_sets
        assert len(subqueries) == 2

    def test_pk_center_produces_dimension_centred_subqueries(self, tiny_schema):
        subqueries = generate_subqueries(five_way_query(), tiny_schema,
                                         QSAStrategy.PK_CENTER)
        alias_sets = {sub.covered_aliases() for sub in subqueries}
        # t is referenced by both mk and ci, so its subquery contains both.
        assert frozenset({"t", "mk", "ci"}) in alias_sets

    def test_min_subquery_one_per_join(self, tiny_schema):
        spj = five_way_query()
        subqueries = generate_subqueries(spj, tiny_schema, QSAStrategy.MIN_SUBQUERY)
        assert len(subqueries) == spj.num_joins
        assert all(len(sub.relations) == 2 for sub in subqueries)

    def test_small_queries_not_split(self, tiny_schema):
        spj = SPJQuery(
            name="pair",
            relations=(RelationRef.base("mk", "mk"), RelationRef.base("t", "t")),
            join_predicates=(JoinPredicate(ColumnRef("mk", "movie_id"),
                                           ColumnRef("t", "id")),))
        for strategy in QSAStrategy:
            subqueries = generate_subqueries(spj, tiny_schema, strategy)
            assert len(subqueries) == 1

    def test_filters_attached_to_subqueries(self, tiny_schema):
        spj = five_way_query()
        subqueries = generate_subqueries(spj, tiny_schema, QSAStrategy.FK_CENTER)
        for sub in subqueries:
            for pred in sub.filters:
                assert pred in spj.filters

    @staticmethod
    def _count_coverage_checks(monkeypatch):
        import repro.core.qsa as qsa
        import repro.core.subquery as subquery

        calls = []

        def counting(subqueries, query):
            calls.append(len(subqueries))
            return coverage_gaps(subqueries, query)

        monkeypatch.setattr(qsa, "coverage_gaps", counting)
        monkeypatch.setattr(subquery, "coverage_gaps", counting)
        return calls

    def test_covering_split_is_checked_once(self, tiny_schema, monkeypatch):
        calls = self._count_coverage_checks(monkeypatch)
        generate_subqueries(five_way_query(), tiny_schema, QSAStrategy.FK_CENTER)
        assert calls == [2]

    def test_repaired_split_is_validated(self, tiny_schema, monkeypatch):
        """A removed cycle edge (ci.id = mk.id) no other predicate implies
        needs a repair subquery, and the repaired set is checked again."""
        import repro.core.qsa as qsa

        spj = five_way_query()
        cyclic = SPJQuery(
            name="cyclic", relations=spj.relations, filters=spj.filters,
            join_predicates=spj.join_predicates + (
                JoinPredicate(ColumnRef("ci", "id"), ColumnRef("mk", "id")),))
        calls = self._count_coverage_checks(monkeypatch)
        subqueries = generate_subqueries(cyclic, tiny_schema, QSAStrategy.FK_CENTER)
        assert calls == [2, 3]
        assert subqueries[-1].covered_aliases() == {"ci", "mk"}
        assert covers(subqueries, cyclic)

        # A repair that leaves a gap fails validation.
        monkeypatch.setattr(qsa, "_repair_coverage", lambda query, subs: subs)
        with pytest.raises(AssertionError, match="not covered"):
            generate_subqueries(cyclic, tiny_schema, QSAStrategy.FK_CENTER)

    def test_every_strategy_covers_job_queries(self, tiny_schema):
        """Property: all three strategies produce covering sets for all samples."""
        from repro.workloads.imdb import IMDB_SCHEMA
        from repro.workloads.job_queries import job_queries

        for query in job_queries(families=[2, 6, 9, 17, 21, 28]):
            for strategy in QSAStrategy:
                subqueries = generate_subqueries(query.spj, IMDB_SCHEMA, strategy)
                assert covers(subqueries, query.spj), (query.name, strategy)


class TestSSA:
    def test_phi_function_values(self):
        import math

        assert phi1(10, 100) == 10
        assert phi2(10, 100) == pytest.approx(10 * math.log(100))
        assert phi3(10, 100) == pytest.approx(100.0)
        assert phi4(10, 100) == 1000
        assert phi5(10, 100) == 100

    def test_phi4_prefers_small_cost_times_rows(self):
        estimates = [
            SubqueryEstimate(None, cost=100.0, rows=10.0),
            SubqueryEstimate(None, cost=10.0, rows=20.0),
            SubqueryEstimate(None, cost=50.0, rows=1.0),
        ]
        assert select_subquery(estimates, CostFunction.PHI4) == 2
        assert select_subquery(estimates, CostFunction.PHI1) == 1
        assert select_subquery(estimates, CostFunction.PHI5) == 2

    def test_empty_estimates_rejected(self):
        with pytest.raises(ValueError):
            select_subquery([], CostFunction.PHI4)

    def test_global_deep_requires_plan(self):
        estimates = [SubqueryEstimate(five_way_query(), 1.0, 1.0)]
        with pytest.raises(ValueError):
            select_subquery(estimates, CostFunction.GLOBAL_DEEP, None)

    def test_global_deep_follows_plan(self, tiny_db, tiny_schema):
        spj = five_way_query()
        plan = Optimizer(tiny_db).plan(spj)
        subqueries = generate_subqueries(spj, tiny_schema, QSAStrategy.FK_CENTER)
        estimates = [SubqueryEstimate(sub, 1.0, 1.0) for sub in subqueries]
        idx = select_subquery(estimates, CostFunction.GLOBAL_DEEP, plan)
        deepest = plan.join_nodes()[0].covered_aliases()
        assert deepest <= estimates[idx].subquery.covered_aliases() or idx in range(len(estimates))


class TestQuerySplitDriver:
    @pytest.mark.parametrize("strategy", list(QSAStrategy))
    @pytest.mark.parametrize("cost_function", [CostFunction.PHI1, CostFunction.PHI4,
                                               CostFunction.PHI5,
                                               CostFunction.GLOBAL_DEEP])
    def test_result_matches_default_plan(self, tiny_db, tiny_query, strategy,
                                         cost_function):
        """QuerySplit must produce the same answer as plain execution
        regardless of its policy configuration (Theorem 1)."""
        expected = Executor(tiny_db).execute(
            Optimizer(tiny_db).plan(tiny_query.spj)).table.to_rows()
        config = QuerySplitConfig(qsa_strategy=strategy, cost_function=cost_function)
        runner = QuerySplitExecutor(tiny_db, Optimizer(tiny_db), config=config)
        report = runner.run(tiny_query)
        assert report.final_table.to_rows() == expected

    def test_temp_tables_cleaned_up(self, tiny_db, tiny_query):
        runner = QuerySplitExecutor(tiny_db, Optimizer(tiny_db))
        runner.run(tiny_query)
        assert tiny_db.temp_table_names == []

    def test_iterations_and_materializations_recorded(self, tiny_db, tiny_query):
        runner = QuerySplitExecutor(tiny_db, Optimizer(tiny_db))
        report = runner.run(tiny_query)
        assert report.num_iterations == 2
        assert report.materializations == 1
        assert report.planner_invocations > 0
        assert all(it.result_rows >= 0 for it in report.iterations)

    def test_statistics_toggle(self, tiny_db, tiny_query):
        with_stats = QuerySplitExecutor(
            tiny_db, Optimizer(tiny_db),
            config=QuerySplitConfig(collect_statistics=True)).run(tiny_query)
        without = QuerySplitExecutor(
            tiny_db, Optimizer(tiny_db),
            config=QuerySplitConfig(collect_statistics=False)).run(tiny_query)
        assert with_stats.stats_collections > 0
        assert without.stats_collections == 0
        assert with_stats.final_table.to_rows() == without.final_table.to_rows()

    def test_timeout_marks_report(self, tiny_db, tiny_query):
        config = QuerySplitConfig(timeout_seconds=0.0)
        report = QuerySplitExecutor(tiny_db, Optimizer(tiny_db), config=config).run(tiny_query)
        assert report.timed_out

    def test_disconnected_query_cartesian_merge(self, tiny_db):
        spj = SPJQuery(
            name="cross",
            relations=(RelationRef.base("k", "k"), RelationRef.base("n", "n")),
            aggregates=(AggregateSpec("count", None, "cnt"),),
        )
        report = QuerySplitExecutor(tiny_db, Optimizer(tiny_db)).run(Query.from_spj(spj))
        expected = tiny_db.table("k").num_rows * tiny_db.table("n").num_rows
        assert report.final_table.to_rows()[0][0] == expected


class _RecordingOptimizer(Optimizer):
    """Keeps every ``(query, plan)`` it made alive, in order."""

    def __init__(self, database):
        super().__init__(database)
        self.made = []

    def plan(self, query):
        plan = super().plan(query)
        self.made.append((query, plan))
        return plan


class _CheckingExecutor(Executor):
    """Checks each plan it receives against a fresh plan of its subquery."""

    def __init__(self, database, optimizer):
        super().__init__(database)
        self.optimizer = optimizer
        self.executed = 0

    def execute(self, plan, *args, **kwargs):
        [query] = [q for q, made in self.optimizer.made if made is plan]
        fresh = Optimizer(self.database).plan(query)
        assert plan.explain() == fresh.explain(), query.name
        self.executed += 1
        return super().execute(plan, *args, **kwargs)


#: Every (QSA strategy, SSA cost function) pair QuerySplit can run with.
ALL_POLICIES = [(strategy, cost_function) for strategy in QSAStrategy
                for cost_function in CostFunction]


def assert_plans_once(database, queries, policies=ALL_POLICIES):
    """Run query ``i`` under ``policies[i % len(policies)]``: each executed
    plan is the one made for its subquery, equals a fresh plan of it, and
    no subquery object is planned twice.  Returns the timed-out runs."""
    timed_out = []
    for index, query in enumerate(queries):
        strategy, cost_function = policies[index % len(policies)]
        optimizer = _RecordingOptimizer(database)
        executor = _CheckingExecutor(database, optimizer)
        report = QuerySplitExecutor(
            database, optimizer, executor,
            QuerySplitConfig(qsa_strategy=strategy,
                             cost_function=cost_function)).run(query)
        context = (query.name, strategy, cost_function)
        if report.timed_out:  # the join-size cap ends the run mid-execute
            timed_out.append(context)
        else:
            assert executor.executed == report.num_iterations > 0, context
        # Every planned query is still alive in ``made``: ids are distinct
        # exactly when the objects are.
        planned = [id(q) for q, _ in optimizer.made]
        assert len(set(planned)) == len(planned), context
        assert report.planner_invocations == len(planned), context
    assert database.temp_table_names == []
    return timed_out


class TestPlanOnce:
    """The plan QuerySplit ranks a subquery by is the plan it executes."""

    def test_generated_stream(self):
        from tests.test_differential import build_differential_database, make_stream

        database = build_differential_database()
        generator = make_stream(database)
        assert assert_plans_once(
            database, [generator.query_at(index) for index in range(200)]) == []

    @pytest.mark.parametrize("cost_function", list(CostFunction))
    def test_job_slice(self, imdb_db, cost_function):
        from repro.workloads.job_queries import job_queries
        from tests.test_optimizer import JOB_SLICE

        queries = [q for q in job_queries() if q.name in JOB_SLICE]
        policies = [(strategy, cost_function) for strategy in QSAStrategy]
        # Query i runs under policies[i % 3]: every query meets every strategy.
        queries = [q for q in queries for _ in policies]
        timed_out = assert_plans_once(imdb_db, queries, policies)
        # PK-Center + global_deep overflows the join-size cap on two queries.
        assert timed_out == ([(name, QSAStrategy.PK_CENTER, cost_function)
                              for name in ("28a", "30c")]
                             if cost_function is CostFunction.GLOBAL_DEEP else [])

    def test_untouched_subquery_keeps_its_plan(self):
        """Substitution replans only the subqueries the temporary overlaps."""
        spj = five_way_query()
        plans = [object(), object()]
        overlapping = SPJQuery(
            name="overlapping",
            relations=(RelationRef.base("t", "t"), RelationRef.base("ci", "ci")),
            join_predicates=(JoinPredicate(ColumnRef("ci", "movie_id"),
                                           ColumnRef("t", "id")),))
        untouched = SPJQuery(name="untouched", relations=spj.relations[4:])
        temp = RelationRef.temp("tmp_0", frozenset({"t", "mk", "k"}))
        [(substituted, no_plan), (kept, plan)] = QuerySplitExecutor._substitute(
            [(overlapping, plans[0]), (untouched, plans[1])], temp)
        assert any(rel.is_temp for rel in substituted.relations)
        assert no_plan is None
        assert kept is untouched and plan is plans[1]


class TestFinalizeCarriesDictionaries:
    """The Cartesian merge repeats/tiles codes; each column keeps the
    dictionary of the one result table it came from."""

    @staticmethod
    def _tables():
        import numpy as np

        from repro.storage.table import DataTable

        left = DataTable("l", {"a.s": np.array([1, 0, -1], dtype=np.int32),
                               "a.x": np.array([10, 20, 30])},
                         dictionaries={"a.s": np.array(["p", "q"], dtype=object)})
        # Code 0 is "q" here: merging must not mix the two code spaces.
        right = DataTable("r", {"b.s": np.array([0, 1], dtype=np.int32)},
                          dictionaries={"b.s": np.array(["q", "r"], dtype=object)})
        return left, right

    def test_projection_of_a_two_table_merge(self, tiny_db):
        runner = QuerySplitExecutor(tiny_db, Optimizer(tiny_db))
        left, right = self._tables()
        spj = SPJQuery(name="merge", relations=(),
                       projections=(ColumnRef("a", "s"), ColumnRef("b", "s")))
        merged = runner._finalize([left, right], spj)
        assert merged.dictionary("a.s") is left.dictionary("a.s")
        assert merged.dictionary("b.s") is right.dictionary("b.s")
        assert merged.to_rows() == [("q", "q"), ("q", "r"), ("p", "q"),
                                    ("p", "r"), (None, "q"), (None, "r")]

    def test_grouping_a_two_table_merge(self, tiny_db):
        runner = QuerySplitExecutor(tiny_db, Optimizer(tiny_db))
        spj = SPJQuery(name="merge", relations=(),
                       projections=(ColumnRef("b", "s"),),
                       aggregates=(AggregateSpec("min", ColumnRef("a", "s"), "lo"),
                                   AggregateSpec("sum", ColumnRef("a", "x"), "x"),
                                   AggregateSpec("count", None, "n")))
        out = runner._finalize(list(self._tables()), spj)
        assert out.to_rows() == [("q", "p", 60, 3), ("r", "p", 60, 3)]


class TestNonSPJ:
    def test_aggregate_over_spj(self, tiny_db):
        spj = SPJQuery(
            name="block",
            relations=(RelationRef.base("ci", "ci"), RelationRef.base("n", "n")),
            join_predicates=(JoinPredicate(ColumnRef("ci", "person_id"),
                                           ColumnRef("n", "id")),),
        )
        root = AggregateNode(
            child=SPJNode(spj),
            group_by=(ColumnRef("n", "gender"),),
            aggregates=(AggregateSpec("count", None, "cnt"),),
        )
        query = Query(name="agg", root=root)
        runner = QuerySplitExecutor(tiny_db, Optimizer(tiny_db))
        report = runner.run(query)
        rows = dict(report.final_table.to_rows())
        assert set(rows) == {"m", "f"}
        assert sum(rows.values()) == tiny_db.table("ci").num_rows

    def test_union_of_blocks(self, tiny_db):
        spj = SPJQuery(
            name="block",
            relations=(RelationRef.base("k", "k"),),
            aggregates=(AggregateSpec("count", None, "cnt"),),
        )
        query = Query(name="union", root=UnionNode((SPJNode(spj), SPJNode(spj))))
        report = QuerySplitExecutor(tiny_db, Optimizer(tiny_db)).run(query)
        assert report.final_rows == 2

    def test_count_spj_blocks(self, tiny_query):
        assert count_spj_blocks(tiny_query.root) == 1

    def test_execute_query_tree_rejects_unknown_nodes(self):
        class Bogus:
            pass

        with pytest.raises(TypeError):
            execute_query_tree(Bogus(), lambda spj: None)
