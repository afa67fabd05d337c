"""Joins keep only the row-id vectors of relations read above them.

The executor passes every plan node the aliases some operator above it
reads: at the root, those of the columns the root step gathers; each join
adds its own predicates' aliases for its children.  A join keeps exactly
the sources that cover one of those aliases.  These tests pin that shape,
the rule that lets both caches serve pruned chunks (only to a consumer
whose reads they cover), and the row count of a chunk that kept no source
at all.
"""

import pytest

from repro.executor.executor import Executor
from repro.executor.operators import Aggregate
from repro.executor.subplan_cache import SubplanCache
from repro.optimizer.optimizer import Optimizer
from repro.plan.expressions import ColumnRef, Comparison, JoinPredicate, StringPrefix
from repro.plan.logical import (
    AggregateNode,
    AggregateSpec,
    Query,
    RelationRef,
    SPJNode,
    SPJQuery,
)
from repro.plan.physical import JoinMethod, JoinNode, PhysicalPlan, ScanNode
from repro.reopt.registry import make_algorithm
from repro.workloads.job_queries import job_queries
from tests.conftest import five_way_query
from tests.reference_eval import (
    assert_results_match,
    canonicalize_table,
    reference_execute,
)
from tests.test_optimizer import JOB_SLICE


def expected_sources(plan: PhysicalPlan) -> dict[int, frozenset[str]]:
    """``id(join node) -> aliases of the sources it must keep``, derived
    from the rule alone (an aggregate plan's root reads its aggregate and
    group-by columns)."""
    root_reads = frozenset(ref.alias for ref in _root_refs(plan))
    expected: dict[int, frozenset[str]] = {}

    def visit(node, reads: frozenset[str]) -> None:
        if not isinstance(node, JoinNode):
            return
        expected[id(node)] = frozenset(
            relation.alias for relation in node.leaf_relations()
            if relation.covered_aliases & reads)
        below = reads.union(*(pred.aliases() for pred in node.predicates))
        visit(node.left, below)
        visit(node.right, below)

    visit(plan.root, root_reads)
    return expected


def _root_refs(plan: PhysicalPlan):
    """The columns ``plan``'s root aggregates or outputs."""
    if not plan.aggregates:
        return plan.output_columns
    return Aggregate(plan.query_name, plan.group_by, plan.aggregates).refs


class TestPrunedShape:
    def test_every_join_keeps_exactly_the_sources_read_above(self, imdb_db):
        """Default plans of the JOB slice: each executed join's chunk
        carries the sources covering the aliases read above it, no more
        and no fewer."""
        optimizer = Optimizer(imdb_db)
        dropped = factorized = 0
        for query in job_queries():
            if query.name not in JOB_SLICE:
                continue
            plan = optimizer.plan(query.spj)
            cache: dict = {}
            Executor(imdb_db).execute(plan, cache=cache)
            expected = expected_sources(plan)
            assert expected, query.name
            # A scalar aggregate that reads the root join's matches leaves
            # no root chunk ...
            reads_matches = Aggregate(
                plan.query_name, plan.group_by, plan.aggregates,
            ).reads_matches(plan.root, imdb_db)
            assert (id(plan.root) in cache) != reads_matches, query.name
            factorized += reads_matches
            # ... until a plan outputs the columns it aggregates.
            Executor(imdb_db).execute(PhysicalPlan(
                query.name, plan.root, output_columns=_root_refs(plan)),
                cache=cache)
            for node_id, aliases in expected.items():
                kept = frozenset(source.relation.alias
                                 for source in cache[node_id].sources)
                assert kept == aliases, query.name
            dropped += sum(len(node.leaf_relations()) - len(expected[id(node)])
                           for node in plan.join_nodes())
        assert dropped > 0  # the slice exercises pruning at all
        assert factorized > 0  # and roots read as matches


def _scan(alias: str) -> ScanNode:
    return ScanNode(relation=RelationRef.base(alias, alias))


def _pred(left: str, right: str) -> JoinPredicate:
    return JoinPredicate(ColumnRef(*left.split(".")), ColumnRef(*right.split(".")))


class TestSharedCacheServesOnlyCoveringChunks:
    def test_shared_subtree_read_differently_above(self, tiny_db):
        """``t JOIN mk`` under two parents: the first reads only ``mk``
        above it (``t`` is pruned from the cached chunk), the second joins
        on ``t``.  Through one cache both equal the reference."""
        t_mk = _pred("mk.movie_id", "t.id")
        queries = {
            "via-k": (_pred("mk.keyword_id", "k.id"), "k",
                      AggregateSpec("min", ColumnRef("k", "kw"), "min_kw")),
            "via-ci": (_pred("ci.movie_id", "t.id"), "ci",
                       AggregateSpec("min", ColumnRef("t", "year"), "min_year")),
        }
        cache = SubplanCache()
        executor = Executor(tiny_db, subplan_cache=cache)
        for name, (pred, other, aggregate) in queries.items():
            aggregates = (AggregateSpec("count", None, "row_count"), aggregate)
            spj = SPJQuery(name=name,
                           relations=tuple(RelationRef.base(a, a)
                                           for a in ("t", "mk", other)),
                           join_predicates=(t_mk, pred), aggregates=aggregates)
            shared = JoinNode(left=_scan("t"), right=_scan("mk"),
                              predicates=(t_mk,), method=JoinMethod.HASH)
            plan = PhysicalPlan(query_name=name, root=JoinNode(
                left=shared, right=_scan(other), predicates=(pred,),
                method=JoinMethod.HASH), aggregates=aggregates)
            result = executor.execute(plan)
            assert cache.peek(shared.signature()) is not None
            assert_results_match(reference_execute(tiny_db, Query.from_spj(spj)),
                                 canonicalize_table(result.table), name)


class TestSourcelessCounts:
    @pytest.mark.parametrize("algorithm", ["Default", "Pop"])
    def test_count_star_over_a_multi_join(self, tiny_db, algorithm):
        """``count(*)`` reads no column, so the root join keeps no source;
        the count still equals the reference."""
        spj = five_way_query("count-only")
        spj = SPJQuery(name=spj.name, relations=spj.relations,
                       filters=spj.filters, join_predicates=spj.join_predicates,
                       aggregates=(AggregateSpec("count", None, "row_count"),))
        query = Query.from_spj(spj)
        report = make_algorithm(algorithm, tiny_db).run(query)
        assert not report.timed_out
        assert_results_match(reference_execute(tiny_db, query),
                             canonicalize_table(report.final_table),
                             algorithm)

    def test_root_chunk_has_no_source(self, tiny_db):
        spj = five_way_query("count-only")
        plan = Optimizer(tiny_db).plan(spj)
        plan = PhysicalPlan(query_name=plan.query_name, root=plan.root,
                            aggregates=(AggregateSpec("count", None, "row_count"),))
        cache: dict = {}
        result = Executor(tiny_db).execute(plan, cache=cache)
        # ``count(*)`` is the root join's match total: the root builds no
        # chunk, and its inputs keep only what its predicates read.
        assert id(plan.root) not in cache
        assert (result.table.to_rows()[0][0] == result.join_rows
                == plan.root.actual_rows > 0)
        joined = frozenset().union(
            *(pred.aliases() for pred in plan.root.predicates))
        for child in plan.root.children():
            if id(child) in cache:
                assert {source.relation.alias
                        for source in cache[id(child)].sources} <= joined

    def test_plan_without_outputs_keeps_no_source(self, tiny_db):
        """Neither outputs nor aggregates: the root reads nothing, and the
        zero-column result carries the join's row count."""
        spj = five_way_query("no-output")
        plan = Optimizer(tiny_db).plan(spj)
        plan = PhysicalPlan(query_name=plan.query_name, root=plan.root)
        cache: dict = {}
        result = Executor(tiny_db).execute(plan, cache=cache)
        assert cache[id(plan.root)].sources == ()
        assert result.table.column_names == []
        assert result.table.num_rows == result.join_rows > 0


ALGORITHMS = ("QuerySplit", "Default", "Reopt", "Pop")


class TestRowsWithoutColumns:
    """Results whose rows carry no column still count, under every algorithm."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_count_star_over_a_block_without_projections(self, tiny_db,
                                                         algorithm):
        spj = five_way_query("count-block")
        spj = SPJQuery(name=spj.name, relations=spj.relations,
                       filters=spj.filters,
                       join_predicates=spj.join_predicates)
        query = Query(name=spj.name, root=AggregateNode(
            SPJNode(spj), (), (AggregateSpec("count", None, "row_count"),)))
        report = make_algorithm(algorithm, tiny_db).run(query)
        assert not report.timed_out
        expected = reference_execute(tiny_db, query)
        assert expected[()]["row_count"] > 0
        assert_results_match(expected, canonicalize_table(report.final_table),
                             algorithm)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_disconnected_component_contributes_only_rows(self, tiny_db,
                                                           algorithm):
        """``t JOIN mk JOIN k`` feeds ``min(t.year)``; ``ci JOIN n``, joined
        to nothing, reads no column and only multiplies the row count."""
        spj = five_way_query("disconnected")
        # ``n`` first keeps the reference's cross product small.
        spj = SPJQuery(name=spj.name,
                       relations=tuple(RelationRef.base(a, a)
                                       for a in ("n", "ci", "t", "mk", "k")),
                       filters=(Comparison(ColumnRef("t", "year"), ">", 2015),
                                StringPrefix(ColumnRef("k", "kw"), "kw_0"),
                                StringPrefix(ColumnRef("n", "name"), "person_000")),
                       join_predicates=(_pred("mk.movie_id", "t.id"),
                                        _pred("mk.keyword_id", "k.id"),
                                        _pred("ci.person_id", "n.id")),
                       aggregates=spj.aggregates)
        assert not spj.is_connected()
        query = Query.from_spj(spj)
        report = make_algorithm(algorithm, tiny_db).run(query)
        assert not report.timed_out
        expected = reference_execute(tiny_db, query)
        assert expected[()]["row_count"] > 0
        assert_results_match(expected, canonicalize_table(report.final_table),
                             algorithm)


class TestPerPlanCacheServesOnlyCoveringChunks:
    @pytest.mark.parametrize("algorithm", ["Pop", "Default"])
    def test_unreferenced_cross_joined_relation_counts_its_rows(
            self, tiny_db, algorithm):
        """``k JOIN mk`` cross-joined with ``t``, no output, no aggregate:
        the root reads no column, so the result is a zero-column table
        that still counts every joined row.  Pop checkpoints ``k x t``
        first and keeps only ``k`` there, and the final plan may serve
        that chunk: its root reads nothing."""
        spj = SPJQuery(name="unreferenced",
                       relations=tuple(RelationRef.base(a, a)
                                       for a in ("k", "mk", "t")),
                       join_predicates=(_pred("mk.keyword_id", "k.id"),))
        report = make_algorithm(algorithm, tiny_db).run(Query.from_spj(spj))
        table = report.final_table
        assert table.column_names == []
        assert table.num_rows == (tiny_db.table("t").num_rows
                                  * tiny_db.table("mk").num_rows)
