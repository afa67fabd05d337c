"""Unit tests for expressions, the SPJ normal form, physical plans, similarity."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.plan.expressions import (
    Between,
    ColumnRef,
    Comparison,
    InList,
    IsNotNull,
    JoinPredicate,
    OrPredicate,
    Predicate,
    StringContains,
    StringPrefix,
)
from repro.plan.logical import (
    AggregateNode,
    AggregateSpec,
    Query,
    RelationRef,
    SPJNode,
    SPJQuery,
    UnionNode,
)
from repro.plan.physical import JoinMethod, JoinNode, PhysicalPlan, ScanNode
from repro.plan.similarity import plan_similarity, similarity_bucket
from tests.conftest import five_way_query


def _resolver(**columns):
    data = {ColumnRef(*name.split(".")): np.asarray(values)
            for name, values in columns.items()}
    return lambda ref: data[ref]


@dataclass(frozen=True)
class _ColumnLess(Predicate):
    """``left < right`` across two relations (no shipped predicate does this)."""

    left: ColumnRef
    right: ColumnRef

    def column_refs(self):
        return (self.left, self.right)

    def evaluate(self, resolve):
        return resolve(self.left) < resolve(self.right)


class TestPredicates:
    def test_comparison_ops(self):
        resolve = _resolver(**{"t.x": [1, 2, 3, 4]})
        ref = ColumnRef("t", "x")
        assert list(Comparison(ref, "=", 2).evaluate(resolve)) == [False, True, False, False]
        assert list(Comparison(ref, "!=", 2).evaluate(resolve)) == [True, False, True, True]
        assert list(Comparison(ref, ">", 2).evaluate(resolve)) == [False, False, True, True]
        assert list(Comparison(ref, "<=", 2).evaluate(resolve)) == [True, True, False, False]

    def test_invalid_operator_rejected(self):
        with pytest.raises(ValueError):
            Comparison(ColumnRef("t", "x"), "~", 1)

    def test_between_and_inlist(self):
        resolve = _resolver(**{"t.x": [1, 5, 10, 20]})
        ref = ColumnRef("t", "x")
        assert list(Between(ref, 5, 10).evaluate(resolve)) == [False, True, True, False]
        assert list(InList(ref, (1, 20)).evaluate(resolve)) == [True, False, False, True]

    def test_string_predicates(self):
        resolve = _resolver(**{"t.s": np.array(["apple", "banana", None, "grape"],
                                               dtype=object)})
        ref = ColumnRef("t", "s")
        assert list(StringContains(ref, "an").evaluate(resolve)) == [False, True, False, False]
        assert list(StringPrefix(ref, "gr").evaluate(resolve)) == [False, False, False, True]
        assert list(IsNotNull(ref).evaluate(resolve)) == [True, True, False, True]

    def test_or_predicate(self):
        resolve = _resolver(**{"t.x": [1, 2, 3]})
        ref = ColumnRef("t", "x")
        pred = OrPredicate((Comparison(ref, "=", 1), Comparison(ref, "=", 3)))
        assert list(pred.evaluate(resolve)) == [True, False, True]
        assert pred.aliases() == frozenset({"t"})

    def test_or_predicate_single_relation_only(self):
        with pytest.raises(ValueError):
            OrPredicate((Comparison(ColumnRef("a", "x"), "=", 1),
                         Comparison(ColumnRef("b", "x"), "=", 1)))

    def test_join_predicate_helpers(self):
        pred = JoinPredicate(ColumnRef("a", "x"), ColumnRef("b", "y"))
        assert pred.aliases() == frozenset({"a", "b"})
        assert pred.other("a") == ColumnRef("b", "y")
        with pytest.raises(KeyError):
            pred.other("c")

    def test_join_predicate_rejects_self_join_alias(self):
        with pytest.raises(ValueError):
            JoinPredicate(ColumnRef("a", "x"), ColumnRef("a", "y"))


class TestSPJQuery:
    def test_validation_rejects_unknown_alias(self):
        with pytest.raises(ValueError):
            SPJQuery(name="bad",
                     relations=(RelationRef.base("a", "a"),),
                     filters=(Comparison(ColumnRef("zz", "x"), "=", 1),))

    def test_duplicate_alias_rejected(self):
        with pytest.raises(ValueError):
            SPJQuery(name="bad",
                     relations=(RelationRef.base("a", "t"), RelationRef.base("a", "t")))

    def test_covered_aliases_and_lookup(self):
        spj = five_way_query()
        assert spj.covered_aliases() == {"t", "mk", "k", "ci", "n"}
        assert spj.relation("t").table_name == "t"
        assert spj.relation_covering("ci").alias == "ci"
        with pytest.raises(KeyError):
            spj.relation("zz")

    def test_filters_for_relation(self):
        spj = five_way_query()
        t_filters = spj.filters_for(spj.relation("t"))
        assert len(t_filters) == 1
        assert t_filters[0].column == ColumnRef("t", "year")

    def test_is_connected(self):
        spj = five_way_query()
        assert spj.is_connected()
        disconnected = SPJQuery(
            name="cross",
            relations=(RelationRef.base("a", "t"), RelationRef.base("b", "k")))
        assert not disconnected.is_connected()

    def test_num_joins_and_output_columns(self):
        spj = five_way_query()
        assert spj.num_joins == 4
        # COUNT(*) reads no column; MIN(t.year) reads one.
        assert spj.output_columns() == (ColumnRef("t", "year"),)
        refs = {*spj.output_columns(),
                *(ref for pred in spj.filters for ref in pred.column_refs()),
                *(ref for pred in spj.join_predicates for ref in (pred.left, pred.right))}
        assert len(refs) == 10

    def test_substitute_replaces_covered_relations(self):
        spj = five_way_query()
        temp = RelationRef.temp("__temp_1", frozenset({"t", "mk", "k"}))
        rewritten = spj.substitute(temp)
        aliases = {r.alias for r in rewritten.relations}
        assert aliases == {"__temp_1", "ci", "n"}
        # Internal predicates (t-mk, mk-k) were dropped; ci-t and ci-n remain.
        assert len(rewritten.join_predicates) == 2
        # Filters on t and k were already applied inside the temporary.
        assert all("t" not in p.aliases() and "k" not in p.aliases()
                   for p in rewritten.filters)

    def test_substitute_no_overlap_is_noop(self):
        spj = five_way_query()
        temp = RelationRef.temp("__temp_9", frozenset({"zz"}))
        assert spj.substitute(temp) is spj

    def test_columns_read_after_follows_substitute(self):
        spj = five_way_query()
        covered = frozenset({"t", "mk", "k"})
        # Joins first, then filters, each in query order, de-duplicated:
        # only ci.movie_id = t.id survives (t-mk, mk-k and the filters on t
        # and k are internal), so t.id is all the next plan can ask about.
        assert spj.columns_read_after(covered) == (ColumnRef("t", "id"),)
        assert spj.columns_read_after(frozenset({"t"})) == (ColumnRef("t", "id"),)
        assert spj.columns_read_after(frozenset({"ci", "n"})) == (
            ColumnRef("ci", "movie_id"),)
        assert spj.columns_read_after(frozenset({"mk"})) == (
            ColumnRef("mk", "movie_id"), ColumnRef("mk", "keyword_id"))
        assert spj.columns_read_after(spj.covered_aliases()) == ()
        # The same predicates substitute() keeps are the ones counted.
        rewritten = spj.substitute(RelationRef.temp("__temp_1", covered))
        kept = {ref for pred in rewritten.join_predicates
                for ref in (pred.left, pred.right) if ref.alias in covered}
        assert set(spj.columns_read_after(covered)) == kept

    def test_columns_read_after_keeps_a_surviving_multi_alias_filter(self):
        """A filter with one alias inside the temporary and one outside is
        not internal to it: substitute() keeps it, so its temp-side column
        stays readable."""
        year_below_id = _ColumnLess(ColumnRef("t", "year"), ColumnRef("n", "id"))
        spj = five_way_query()
        spj = SPJQuery(name="cross-filter", relations=spj.relations,
                       filters=spj.filters + (year_below_id,),
                       join_predicates=spj.join_predicates)
        covered = frozenset({"t", "mk"})
        assert spj.columns_read_after(covered) == (
            ColumnRef("mk", "keyword_id"), ColumnRef("t", "id"),
            ColumnRef("t", "year"))
        rewritten = spj.substitute(RelationRef.temp("__temp_1", covered))
        assert year_below_id in rewritten.filters

    def test_aggregate_spec_validation(self):
        with pytest.raises(ValueError):
            AggregateSpec("median", ColumnRef("t", "x"), "m")
        with pytest.raises(ValueError):
            AggregateSpec("min", None, "m")


class TestQueryTree:
    def test_spj_leaves(self):
        spj = five_way_query()
        union = UnionNode((SPJNode(spj), AggregateNode(SPJNode(spj), (), ())))
        assert len(union.spj_leaves()) == 2

    def test_query_wrappers(self):
        query = Query.from_spj(five_way_query(), family=6)
        assert query.is_spj
        assert query.spj.name == "q5way"
        assert query.metadata["family"] == 6
        assert query.num_relations == 5

    def test_non_spj_query_spj_accessor_raises(self):
        spj = five_way_query()
        query = Query(name="agg", root=AggregateNode(SPJNode(spj), (), ()))
        assert not query.is_spj
        with pytest.raises(TypeError):
            _ = query.spj


def _scan(alias, rows=10.0):
    return ScanNode(relation=RelationRef.base(alias, alias), est_rows=rows,
                    est_cost=rows)


def _join(left, right, method=JoinMethod.HASH, rows=10.0):
    return JoinNode(left=left, right=right, predicates=(), method=method,
                    est_rows=rows, est_cost=rows)


class TestPhysicalPlan:
    def test_leaf_relations_and_join_order(self):
        plan = PhysicalPlan("q", _join(_join(_scan("a"), _scan("b")), _scan("c")))
        assert [r.alias for r in plan.leaf_relations()] == ["a", "b", "c"]
        joins = plan.join_nodes()
        assert joins[0].covered_aliases() == {"a", "b"}
        assert joins[-1] is plan.root

    def test_pipeline_breaker_flag(self):
        hash_join = _join(_scan("a"), _scan("b"), JoinMethod.HASH)
        nl_join = _join(_scan("a"), _scan("b"), JoinMethod.INDEX_NL)
        assert hash_join.is_pipeline_breaker
        assert not nl_join.is_pipeline_breaker

    def test_intermediate_relation_sets_excludes_root(self):
        plan = PhysicalPlan("q", _join(_join(_scan("a"), _scan("b")), _scan("c")))
        assert plan.intermediate_relation_sets() == {frozenset({"a", "b"})}

    def test_explain_renders_every_node(self):
        plan = PhysicalPlan("q", _join(_scan("a"), _scan("b")))
        text = plan.explain()
        assert "Join" in text and "Scan(a" in text and "Scan(b" in text


class TestSimilarity:
    def _plan(self, *levels):
        """Build a left-deep plan joining the given aliases in order."""
        node = _scan(levels[0])
        for alias in levels[1:]:
            node = _join(node, _scan(alias))
        return PhysicalPlan("q", node)

    def test_identical_plans_similarity_full_prefix(self):
        a = self._plan("r1", "r2", "r3")
        b = self._plan("r1", "r2", "r4")
        assert plan_similarity(a, b) == 2

    def test_shared_leaf_only(self):
        a = self._plan("r1", "r2", "r3")
        b = self._plan("r1", "r3", "r2")
        assert plan_similarity(a, b) == 1

    def test_disjoint_first_joins(self):
        a = self._plan("r1", "r2", "r3", "r4")
        b = self._plan("r3", "r4", "r1", "r2")
        # First joins {r1,r2} vs {r3,r4} share nothing.
        assert plan_similarity(a, b) == 0

    def test_single_relation_plans(self):
        a = PhysicalPlan("q", _scan("x"))
        assert plan_similarity(a, a) == 1

    def test_bucket_labels(self):
        assert similarity_bucket(0) == "0"
        assert similarity_bucket(2) == "2"
        assert similarity_bucket(5) == ">2"
