"""Unit tests for cardinality estimation, the cost model, and plan enumeration."""

import dataclasses
import inspect

import pytest

from repro.optimizer.cardinality import DefaultCardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.injection import NoisyCardinalityEstimator
from repro.optimizer import join_enum
from repro.optimizer.join_enum import EnumeratorConfig, JoinEnumerator
from repro.optimizer.learned import LearnedCardinalityEstimator
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.optimizer.oracle import OracleCardinalityEstimator, TrueCardinalityOracle
from repro.optimizer.pessimistic import PessimisticCardinalityEstimator
from repro.optimizer.robust import fs_config, optimality_range, use_config
from repro.plan.expressions import ColumnRef, Comparison, JoinPredicate, StringPrefix
from repro.plan.logical import RelationRef, SPJQuery
from repro.plan.physical import JoinMethod, JoinNode, ScanNode
from repro.reopt.registry import make_algorithm
from repro.workloads.job_queries import job_queries
from repro.workloads.sqlgen import JoinSamplerConfig, RandomQueryGenerator
from tests.conftest import five_way_query, with_implied_edges
from tests.reference_enum import ReferenceJoinEnumerator


@pytest.fixture(scope="module")
def estimator(tiny_db):
    return DefaultCardinalityEstimator(tiny_db)


@pytest.fixture(scope="module")
def oracle_estimator(tiny_db):
    return OracleCardinalityEstimator(tiny_db)


def _rel(alias):
    return RelationRef.base(alias, alias)


class TestDefaultEstimator:
    def test_scan_without_filters_is_table_size(self, estimator, tiny_db):
        rows = estimator.estimate_rows((_rel("ci"),), (), ())
        assert rows == tiny_db.table("ci").num_rows

    def test_equality_filter_reduces_rows(self, estimator, tiny_db):
        pred = Comparison(ColumnRef("t", "kind"), "=", "tv")
        rows = estimator.estimate_rows((_rel("t",),), (pred,), ())
        assert 0 < rows < tiny_db.table("t").num_rows

    def test_range_filter_uses_histogram(self, estimator, tiny_db):
        pred = Comparison(ColumnRef("t", "year"), ">", 2010)
        rows = estimator.estimate_rows((_rel("t"),), (pred,), ())
        true = int((tiny_db.table("t").column("year") > 2010).sum())
        assert rows == pytest.approx(true, rel=0.5)

    def test_independence_assumption_multiplies(self, estimator):
        p1 = Comparison(ColumnRef("t", "year"), ">", 2010)
        p2 = Comparison(ColumnRef("t", "kind"), "=", "tv")
        single = estimator.estimate_rows((_rel("t"),), (p1,), ())
        both = estimator.estimate_rows((_rel("t"),), (p1, p2), ())
        assert both < single

    def test_pk_fk_join_estimate(self, estimator, tiny_db):
        pred = JoinPredicate(ColumnRef("mk", "movie_id"), ColumnRef("t", "id"))
        rows = estimator.estimate_rows((_rel("mk"), _rel("t")), (), (pred,))
        # PK-FK join output is roughly the FK side size.
        assert rows == pytest.approx(tiny_db.table("mk").num_rows, rel=0.5)

    def test_minimum_one_row(self, estimator):
        pred = Comparison(ColumnRef("k", "kw"), "=", "definitely-not-present")
        assert estimator.estimate_rows((_rel("k"),), (pred,), ()) >= 1.0

    def test_string_pattern_defaults(self, estimator, tiny_db):
        pred = StringPrefix(ColumnRef("k", "kw"), "kw_0")
        rows = estimator.estimate_rows((_rel("k"),), (pred,), ())
        assert rows < tiny_db.table("k").num_rows


class TestOracleEstimator:
    def test_scan_is_exact(self, oracle_estimator, tiny_db):
        pred = Comparison(ColumnRef("t", "year"), ">", 2010)
        rows = oracle_estimator.estimate_rows((_rel("t"),), (pred,), ())
        true = int((tiny_db.table("t").column("year") > 2010).sum())
        assert rows == true

    def test_join_is_exact(self, oracle_estimator, tiny_db):
        pred = JoinPredicate(ColumnRef("mk", "movie_id"), ColumnRef("t", "id"))
        rows = oracle_estimator.estimate_rows((_rel("mk"), _rel("t")), (), (pred,))
        # Every mk row matches exactly one title (FK integrity by construction).
        assert rows == tiny_db.table("mk").num_rows

    def test_count_is_cached(self, tiny_db):
        """A repeated probe is answered from the memo, with the same count."""
        oracle = TrueCardinalityOracle(tiny_db)
        est = OracleCardinalityEstimator(tiny_db, oracle=oracle)
        pred = JoinPredicate(ColumnRef("ci", "movie_id"), ColumnRef("t", "id"))
        rows = est.estimate_rows((_rel("ci"), _rel("t")), (), (pred,), "q")
        counted = oracle.counted
        assert est.estimate_rows((_rel("ci"), _rel("t")), (), (pred,), "q") == rows
        assert oracle.counted == counted

    def test_reset_clears_cache(self, tiny_db):
        """After a reset the memo is empty and a probe is counted afresh,
        to the same answer."""
        oracle = TrueCardinalityOracle(tiny_db)
        est = OracleCardinalityEstimator(tiny_db, oracle=oracle)
        pred = JoinPredicate(ColumnRef("ci", "movie_id"), ColumnRef("t", "id"))
        rows = est.estimate_rows((_rel("ci"), _rel("t")), (), (pred,), "q")
        assert oracle.memo_size > 0
        oracle.reset()
        assert oracle.memo_size == 0
        counted = oracle.counted
        assert est.estimate_rows((_rel("ci"), _rel("t")), (), (pred,), "q") == rows
        assert oracle.counted > counted

    def test_three_way_join_matches_bruteforce(self, tiny_db, oracle_estimator):
        import numpy as np

        preds = (JoinPredicate(ColumnRef("mk", "movie_id"), ColumnRef("t", "id")),
                 JoinPredicate(ColumnRef("mk", "keyword_id"), ColumnRef("k", "id")))
        filt = (Comparison(ColumnRef("t", "year"), ">", 2015),)
        rows = oracle_estimator.estimate_rows(
            (_rel("t"), _rel("mk"), _rel("k")), filt, preds, "q3")
        t = tiny_db.table("t")
        mk = tiny_db.table("mk")
        selected = set(t.column("id")[t.column("year") > 2015].tolist())
        expected = int(np.isin(mk.column("movie_id"),
                               np.array(sorted(selected))).sum())
        assert rows == expected


class TestNoiseInjection:
    def test_noise_is_deterministic_per_subset(self, estimator):
        noisy = NoisyCardinalityEstimator(estimator, mu=0.0, sigma=2.0, seed=7)
        pred = JoinPredicate(ColumnRef("mk", "movie_id"), ColumnRef("t", "id"))
        args = ((_rel("mk"), _rel("t")), (), (pred,), "q")
        assert noisy.estimate_rows(*args) == noisy.estimate_rows(*args)

    def test_noise_changes_with_seed(self, estimator):
        pred = JoinPredicate(ColumnRef("mk", "movie_id"), ColumnRef("t", "id"))
        args = ((_rel("mk"), _rel("t")), (), (pred,), "q")
        a = NoisyCardinalityEstimator(estimator, sigma=2.0, seed=1).estimate_rows(*args)
        b = NoisyCardinalityEstimator(estimator, sigma=2.0, seed=2).estimate_rows(*args)
        assert a != b

    def test_base_scans_unperturbed(self, estimator):
        noisy = NoisyCardinalityEstimator(estimator, sigma=3.0, seed=1)
        args = ((_rel("t"),), (), (), "q")
        assert noisy.estimate_rows(*args) == estimator.estimate_rows(*args)

    def test_zero_sigma_is_identity(self, estimator):
        noisy = NoisyCardinalityEstimator(estimator, mu=0.0, sigma=0.0)
        pred = JoinPredicate(ColumnRef("mk", "movie_id"), ColumnRef("t", "id"))
        args = ((_rel("mk"), _rel("t")), (), (pred,), "q")
        assert noisy.estimate_rows(*args) == pytest.approx(
            estimator.estimate_rows(*args))


class TestLearnedAndPessimistic:
    def test_learned_falls_back_on_strings(self, tiny_db):
        learned = LearnedCardinalityEstimator(tiny_db, model="neurocard")
        default = DefaultCardinalityEstimator(tiny_db)
        pred = Comparison(ColumnRef("t", "kind"), "=", "tv")
        args = ((_rel("t"),), (pred,), (), "q")
        assert learned.estimate_rows(*args) == default.estimate_rows(*args)

    def test_learned_accurate_on_numeric(self, tiny_db):
        learned = LearnedCardinalityEstimator(tiny_db, model="neurocard")
        pred = JoinPredicate(ColumnRef("mk", "movie_id"), ColumnRef("t", "id"))
        filt = (Comparison(ColumnRef("t", "year"), ">", 2015),)
        rows = learned.estimate_rows((_rel("mk"), _rel("t")), filt, (pred,), "q")
        oracle_rows = OracleCardinalityEstimator(tiny_db).estimate_rows(
            (_rel("mk"), _rel("t")), filt, (pred,), "q")
        assert rows == pytest.approx(oracle_rows, rel=3.0)

    def test_unknown_model_rejected(self, tiny_db):
        with pytest.raises(ValueError):
            LearnedCardinalityEstimator(tiny_db, model="gpt")

    def test_pessimistic_never_below_default_on_joins(self, tiny_db):
        default = DefaultCardinalityEstimator(tiny_db)
        pessimistic = PessimisticCardinalityEstimator(tiny_db)
        pred = JoinPredicate(ColumnRef("ci", "movie_id"), ColumnRef("mk", "movie_id"))
        args = ((_rel("ci"), _rel("mk")), (), (pred,), "q")
        assert pessimistic.estimate_rows(*args) >= default.estimate_rows(*args)


class TestCostModel:
    def test_scan_cost_grows_with_rows(self):
        model = CostModel()
        assert model.scan_cost(10_000, 10_000) > model.scan_cost(100, 100)

    def test_scan_cost_reads_every_row(self):
        """The PostgreSQL-style formula over the whole table; code-space
        filters pay a quarter of the per-tuple operator cost."""
        model = CostModel()
        p = model.params
        expected = (100_000 / p.rows_per_page * p.seq_page_cost
                    + 100_000 * p.cpu_tuple_cost
                    + 100_000 * (1 + 0.25) * p.cpu_operator_cost
                    + 100 * p.cpu_tuple_cost)
        assert model.scan_cost(100_000, 100, num_filters=2,
                               code_space_filters=1) == pytest.approx(expected)
        assert model.scan_cost(100_000, 100, num_filters=2) > model.scan_cost(
            100_000, 100, num_filters=2, code_space_filters=2)

    def test_index_nl_cheap_for_small_outer(self):
        model = CostModel()
        hash_cost = model.join_cost(JoinMethod.HASH, 10, 100_000, 50)
        index_cost = model.join_cost(JoinMethod.INDEX_NL, 10, 100_000, 50,
                                     inner_indexed=True)
        assert index_cost < hash_cost

    def test_index_nl_expensive_for_large_outer(self):
        model = CostModel()
        hash_cost = model.join_cost(JoinMethod.HASH, 1_000_000, 1_000, 1_000_000)
        index_cost = model.join_cost(JoinMethod.INDEX_NL, 1_000_000, 1_000,
                                     1_000_000, inner_indexed=True)
        assert hash_cost < index_cost

    def test_nested_loop_is_quadratic(self):
        model = CostModel()
        assert (model.join_cost(JoinMethod.NL, 1000, 1000, 10)
                > model.join_cost(JoinMethod.HASH, 1000, 1000, 10))

    def test_index_nl_requires_index(self):
        with pytest.raises(ValueError):
            CostModel().join_cost(JoinMethod.INDEX_NL, 10, 10, 10, inner_indexed=False)


class TestJoinEnumeration:
    def test_plan_covers_all_relations(self, tiny_db):
        plan = Optimizer(tiny_db).plan(five_way_query())
        assert {r.alias for r in plan.leaf_relations()} == {"t", "mk", "k", "ci", "n"}
        assert len(plan.join_nodes()) == 4

    def test_single_relation_plan_is_scan(self, tiny_db):
        spj = SPJQuery(name="s", relations=(_rel("t"),),
                       filters=(Comparison(ColumnRef("t", "year"), ">", 2000),))
        plan = Optimizer(tiny_db).plan(spj)
        assert isinstance(plan.root, ScanNode)

    def test_greedy_used_beyond_dp_limit(self, tiny_db):
        config = OptimizerConfig(enumerator=EnumeratorConfig(dp_relation_limit=3))
        plan = Optimizer(tiny_db, config=config).plan(five_way_query())
        assert {r.alias for r in plan.leaf_relations()} == {"t", "mk", "k", "ci", "n"}

    def test_cross_product_handled(self, tiny_db):
        spj = SPJQuery(name="cross",
                       relations=(_rel("t"), _rel("k")))
        plan = Optimizer(tiny_db).plan(spj)
        assert len(plan.leaf_relations()) == 2
        assert plan.root.predicates == ()

    def test_index_nl_disabled_without_indexes(self, tiny_schema):
        from repro.storage.database import IndexConfig
        from tests.conftest import build_tiny_database

        db = build_tiny_database(tiny_schema, index_config=IndexConfig.NONE)
        plan = Optimizer(db).plan(five_way_query())
        assert all(j.method is not JoinMethod.INDEX_NL for j in plan.join_nodes())

    def test_use_config_bans_nested_loops(self, tiny_db):
        config = OptimizerConfig(enumerator=use_config())
        plan = Optimizer(tiny_db, config=config).plan(five_way_query())
        assert all(j.method is JoinMethod.HASH for j in plan.join_nodes())

    def test_estimate_returns_cost_and_rows(self, tiny_db):
        cost, rows = Optimizer(tiny_db).estimate(five_way_query())
        assert cost > 0 and rows >= 1

    def test_invocation_counter(self, tiny_db):
        optimizer = Optimizer(tiny_db)
        optimizer.plan(five_way_query())
        optimizer.plan(five_way_query())
        assert optimizer.invocations == 2

    def test_oracle_plan_not_worse_than_default(self, tiny_db):
        """The oracle-driven plan never has higher *true* cost than Default's."""
        from repro.executor.executor import Executor

        spj = five_way_query()
        default_plan = Optimizer(tiny_db).plan(spj)
        optimal_plan = Optimizer(tiny_db).with_estimator(
            OracleCardinalityEstimator(tiny_db)).plan(spj)
        executor = Executor(tiny_db)
        default_rows = sum(j.actual_rows or 0 for j in default_plan.join_nodes())
        executor.execute(default_plan)
        executor.execute(optimal_plan)
        default_rows = sum(j.actual_rows for j in default_plan.join_nodes())
        optimal_rows = sum(j.actual_rows for j in optimal_plan.join_nodes())
        assert optimal_rows <= default_rows * 1.5


# ----------------------------------------------------------------------
# Differential: production enumerator vs. tests/reference_enum.py
# ----------------------------------------------------------------------
def assert_same_plan(actual, expected, context):
    """Node-by-node equality, ``==`` on every float."""
    assert type(actual) is type(expected), context
    assert actual.est_rows == expected.est_rows, context
    assert actual.est_cost == expected.est_cost, context
    if isinstance(expected, ScanNode):
        assert actual.relation == expected.relation, context
        assert actual.filters == expected.filters, context
        return
    assert actual.method is expected.method, context
    assert actual.predicates == expected.predicates, context
    assert actual.index_column == expected.index_column, context
    assert_same_plan(actual.left, expected.left, context)
    assert_same_plan(actual.right, expected.right, context)


def _spj(query):
    (spj,) = query.root.spj_leaves()
    return spj


def _disconnect(spj):
    """``spj`` without the join predicates of its last relation."""
    cut = spj.relations[-1].alias
    return dataclasses.replace(
        spj, name=spj.name + "-cut",
        join_predicates=tuple(p for p in spj.join_predicates
                              if cut not in p.aliases()))


def _densify(spj):
    """``spj`` with cycles and several predicates per relation pair.

    Adds the equalities implied by two predicates sharing a column, then a
    mirrored copy of every predicate, so that one join applies predicates of
    several pairs that are interleaved in ``join_predicates`` -- the case in
    which the DP's and the greedy search's predicate orders differ.
    """
    return dataclasses.replace(with_implied_edges(spj), name=spj.name + "-dense")


ENUMERATOR_CONFIGS = {
    "default": EnumeratorConfig(),
    "no-hash": EnumeratorConfig(enable_hash=False),
    "no-index-nl": EnumeratorConfig(enable_index_nl=False),
    "no-nl": EnumeratorConfig(enable_nl=False),
    "nl-last-resort": EnumeratorConfig(enable_hash=False, enable_index_nl=False),
    "use": use_config(),
    "fs": fs_config(),
    "greedy": EnumeratorConfig(dp_relation_limit=3),
    "greedy-fs": fs_config(EnumeratorConfig(dp_relation_limit=2)),
    "greedy-no-nl": EnumeratorConfig(dp_relation_limit=2, enable_nl=False),
}


def assert_matches_reference(database, estimator, config, spj, label=""):
    """Plan ``spj`` with both enumerators and compare; returns the plan."""
    expected = ReferenceJoinEnumerator(
        database, estimator, CostModel(), config).plan(spj)
    actual = JoinEnumerator(database, estimator, CostModel(), config).plan(spj)
    assert_same_plan(actual, expected, f"{label}: {spj}")
    return actual


class ReferenceCheckedOptimizer(Optimizer):
    """Before planning a query that reads a temporary -- while the temporary
    and its statistics exist -- compares the two enumerators on it under
    every configuration and estimator of the static test."""

    temps_checked = 0

    def plan(self, query):
        if any(relation.is_temp for relation in query.relations):
            noisy = NoisyCardinalityEstimator(self.estimator, sigma=2.0, seed=7)
            for estimator in (self.estimator, noisy):
                for name, config in ENUMERATOR_CONFIGS.items():
                    assert_matches_reference(self.database, estimator, config,
                                             query, name)
            self.temps_checked += 1
        return super().plan(query)


class TestEnumeratorMatchesReference:
    @pytest.fixture(scope="class")
    def queries(self, imdb_db):
        """JOB and a seeded generated stream, plus disconnected and
        densely connected twins of some of them."""
        job = [_spj(q) for q in job_queries()]
        generated = [
            _spj(q) for q in RandomQueryGenerator(
                imdb_db, seed=17, join_config=JoinSamplerConfig(max_joins=6),
            ).generate(40)]
        connected = job + generated
        cut = [_disconnect(spj) for spj in connected[::3] if spj.join_predicates]
        assert any(not spj.is_connected() for spj in cut)
        dense = [_densify(spj) for spj in connected[1::5]]
        return {"all": connected + cut + dense,
                "slice": connected[::4] + cut[::2] + dense[::2]}

    @pytest.fixture(scope="class", params=["default", "noisy"])
    def estimator(self, request, imdb_db):
        default = DefaultCardinalityEstimator(imdb_db)
        if request.param == "default":
            return default
        return NoisyCardinalityEstimator(default, sigma=2.0, seed=7)

    @pytest.mark.parametrize("config_name", list(ENUMERATOR_CONFIGS))
    def test_same_tree_and_floats(self, imdb_db, queries, estimator, config_name):
        config = ENUMERATOR_CONFIGS[config_name]
        # Whole-JOB reference planning is the slow part; the full stream
        # runs under the default config and greedy, a slice elsewhere.
        full = config_name in ("default", "greedy")
        methods = set()
        for spj in queries["all" if full else "slice"]:
            plan = assert_matches_reference(imdb_db, estimator, config, spj,
                                            config_name)
            methods.update(j.method for j in plan.join_nodes())
        # The comparison is only worth something if each scoring branch
        # actually produced winners.
        assert methods >= {"default": {JoinMethod.HASH, JoinMethod.INDEX_NL},
                           "no-hash": {JoinMethod.INDEX_NL, JoinMethod.NL},
                           "nl-last-resort": {JoinMethod.NL}}.get(config_name, set())

    def test_pessimistic_subclass_keeps_its_estimates(self, imdb_db, queries):
        """A DefaultCardinalityEstimator subclass that redefines
        ``estimate_rows`` must not be served the cached-factor fast path."""
        estimator = PessimisticCardinalityEstimator(imdb_db)
        for spj in queries["slice"]:
            assert_matches_reference(imdb_db, estimator, EnumeratorConfig(), spj)

    @pytest.mark.parametrize("config_name", ["default", "fs"])
    def test_exact_tie_goes_to_the_earlier_split(self, imdb_db, config_name):
        """Two aliases of one table with identical filters make two splits
        of the full mask score exactly alike; a skipped or re-ordered split
        would hand the tie to the other one."""
        relations = (RelationRef.base("mk", "movie_keyword"),
                     RelationRef.base("t1", "title"), RelationRef.base("t2", "title"))
        filters = tuple(Comparison(ColumnRef(t, "production_year"), ">", 2000)
                        for t in ("t1", "t2"))
        joins = tuple(JoinPredicate(ColumnRef(t, "id"), ColumnRef("mk", "movie_id"))
                      for t in ("t1", "t2"))
        spj = SPJQuery(name="tie", relations=relations, filters=filters,
                       join_predicates=joins)
        estimator = DefaultCardinalityEstimator(imdb_db)
        config = ENUMERATOR_CONFIGS[config_name]
        halves = [JoinEnumerator(imdb_db, estimator, CostModel(), config).plan(
            SPJQuery(name="half", relations=(relations[0], relations[i]),
                     filters=(filters[i - 1],), join_predicates=(joins[i - 1],)))
            for i in (1, 2)]
        assert halves[0].est_cost == halves[1].est_cost
        assert halves[0].est_rows == halves[1].est_rows
        assert_matches_reference(imdb_db, estimator, config, spj, config_name)

    @pytest.mark.parametrize("algorithm", ["QuerySplit", "Reopt", "Pop"])
    def test_queries_over_temporaries(self, imdb_db, algorithm):
        """The queries re-optimizing policies build with
        ``SPJQuery.substitute`` (a temporary standing in for the relations
        it covers, their internal predicates dropped) plan identically too."""
        runner = make_algorithm(algorithm, imdb_db)
        runner.optimizer = ReferenceCheckedOptimizer(imdb_db)
        wanted = {"6d", "13a", "17b", "23b", "28a"}
        for query in job_queries():
            if query.name in wanted:
                assert not runner.run(query).timed_out
        assert runner.optimizer.temps_checked > 0
        assert imdb_db.temp_table_names == []


JOB_SLICE = ("1a", "3b", "6d", "9c", "13a", "17b", "21a", "23b", "28a", "30c")

#: ``Optimizer.invocations`` per query of JOB_SLICE, recorded on the revision
#: before the enumerator rewrite (imdb scale 0.25, identical for
#: PYTHONHASHSEED 0-3 and random).  QuerySplit's row was re-recorded when it
#: began executing the plan it ranked a subquery by: one plan per distinct
#: subquery, where it used to plan every remaining subquery each iteration
#: and the winner twice.
PLANNER_INVOCATIONS = {
    "QuerySplit": [1, 3, 3, 6, 6, 6, 1, 10, 15, 6],
    "Default": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    "Reopt": [1, 1, 1, 1, 1, 1, 1, 2, 3, 1],
    "Pop": [1, 2, 3, 3, 3, 4, 3, 2, 5, 5],
}


class TestPlannerCallStructure:
    """What the drivers and ``benchmarks/e2e/tracing.py`` rely on."""

    @pytest.mark.parametrize("dp_relation_limit", [8, 3])
    def test_join_nodes_built_for_the_winning_tree_only(
            self, imdb_db, monkeypatch, dp_relation_limit):
        built = []

        class CountingJoinNode(JoinNode):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(join_enum, "JoinNode", CountingJoinNode)
        optimizer = Optimizer(imdb_db, config=OptimizerConfig(
            enumerator=EnumeratorConfig(dp_relation_limit=dp_relation_limit)))
        by_name = {q.name: q for q in job_queries()}
        for name in JOB_SLICE:
            spj = _spj(by_name[name])
            built.clear()
            optimizer.plan(spj)
            assert len(built) == len(spj.relations) - 1, name

    def test_plans_share_no_nodes(self, imdb_db):
        """The executor writes ``actual_rows`` into nodes and
        ``reopt/base.py`` keys on ``id(node)``: trees must be private."""
        def nodes(node):
            yield node
            for child in node.children():
                yield from nodes(child)

        optimizer = Optimizer(imdb_db)
        greedy = Optimizer(imdb_db, config=OptimizerConfig(
            enumerator=EnumeratorConfig(dp_relation_limit=3)))
        for query in job_queries(families=[1, 6, 17]):
            spj = _spj(query)
            for opt in (optimizer, greedy):
                first, second = opt.plan(spj), opt.plan(spj)  # both alive
                assert {id(n) for n in nodes(first.root)}.isdisjoint(
                    id(n) for n in nodes(second.root))

    def test_plan_and_estimate_signatures(self):
        assert list(inspect.signature(Optimizer.plan).parameters) == ["self", "query"]
        assert list(inspect.signature(Optimizer.estimate).parameters) == [
            "self", "query"]

    @pytest.mark.parametrize("algorithm", list(PLANNER_INVOCATIONS))
    def test_invocations_per_query_unchanged(self, imdb_db, algorithm):
        by_name = {q.name: q for q in job_queries()}
        runner = make_algorithm(algorithm, imdb_db)
        invocations = [runner.run(by_name[name]).planner_invocations
                       for name in JOB_SLICE]
        assert invocations == PLANNER_INVOCATIONS[algorithm]


class TestRobustHelpers:
    def test_fs_config_sets_robustness(self):
        config = fs_config()
        assert config.robustness_weight > 0
        assert config.robustness_blowup > 1

    def test_optimality_range_contains(self):
        window = optimality_range(100.0)
        assert window.contains(100)
        assert window.contains(30)
        assert not window.contains(1000)
        assert window.low == pytest.approx(25.0)
        assert window.high == pytest.approx(400.0)
