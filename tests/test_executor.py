"""Unit tests for the vectorized executor and its join primitives."""

from dataclasses import replace

import numpy as np
import pytest

from repro.catalog.schema import Column, ForeignKey, Schema, TableSchema
from repro.catalog.types import DataType
from repro.executor.executor import ExecutionError, Executor, group_aggregate, union_all
from repro.executor.joins import (
    JoinOverflowError,
    count_matches,
    dense_ids,
    equi_join_indices,
    multi_key_matches,
)
from repro.executor.subplan_cache import SubplanCache
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.oracle import OracleCardinalityEstimator
from repro.plan.expressions import (
    Between,
    ColumnRef,
    Comparison,
    InList,
    IsNotNull,
    JoinPredicate,
    OrPredicate,
    StringContains,
    StringPrefix,
)
from repro.plan.logical import AggregateSpec, RelationRef, SPJQuery
from repro.plan.physical import JoinMethod, scan_signature
from repro.storage.database import Database
from repro.storage.table import DataTable
from tests.conftest import five_way_query

#: One column of each relation of :func:`five_way_query`: a plan that
#: outputs them keeps every relation's rows in every chunk it caches.
FIVE_WAY_COLUMNS = (ColumnRef("t", "year"), ColumnRef("mk", "keyword_id"),
                    ColumnRef("k", "kw"), ColumnRef("ci", "person_id"),
                    ColumnRef("n", "gender"))


class TestJoinPrimitives:
    def test_equi_join_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        left = rng.integers(0, 20, 200)
        right = rng.integers(0, 20, 300)
        li, ri = equi_join_indices(left, right)
        assert np.all(left[li] == right[ri])
        expected = sum(int((right == v).sum()) for v in left)
        assert len(li) == expected

    def test_equi_join_empty_inputs(self):
        li, ri = equi_join_indices(np.array([]), np.array([1, 2]))
        assert len(li) == 0 and len(ri) == 0

    def test_equi_join_no_matches(self):
        li, ri = equi_join_indices(np.array([1, 2]), np.array([3, 4]))
        assert len(li) == 0

    def test_equi_join_string_keys(self):
        left = np.array(["a", "b", "a"], dtype=object)
        right = np.array(["a", "c"], dtype=object)
        li, ri = equi_join_indices(left, right)
        assert len(li) == 2
        assert all(left[i] == "a" for i in li)

    def test_multi_key_join(self):
        left = [np.array([1, 1, 2]), np.array([10, 20, 10])]
        right = [np.array([1, 2, 1]), np.array([10, 10, 20])]
        li, ri = multi_key_matches(left, right).pairs()
        pairs = {(int(l), int(r)) for l, r in zip(li, ri)}
        assert pairs == {(0, 0), (1, 2), (2, 1)}

    def test_multi_key_requires_matching_key_counts(self):
        with pytest.raises(ValueError):
            multi_key_matches([np.array([1])], [])

    def test_count_matches_exact(self):
        rng = np.random.default_rng(1)
        left = rng.integers(0, 15, 500)
        right = rng.integers(0, 15, 400)
        li, _ = equi_join_indices(left, right)
        assert count_matches([left], [right]) == len(li)

    def test_overflow_guard(self):
        left = np.zeros(10_000, dtype=np.int64)
        right = np.zeros(10_000, dtype=np.int64)
        with pytest.raises(JoinOverflowError):
            equi_join_indices(left, right)

    def test_dense_ids_survive_span_overflow(self):
        """Many high-cardinality key columns must not overflow the encoding.

        40 columns with ~100 distinct values each give a naive span product
        of 100**40 -- far past int64 -- so this exercises the re-uniquify
        fallback.  Row 0 matches right row 0 on every column; the decoy rows
        differ in at least one column and must not match.
        """
        rng = np.random.default_rng(7)
        n_cols = 40
        left_keys = [rng.integers(0, 100, 50) for _ in range(n_cols)]
        right_keys = [np.concatenate(([left_keys[i][0]], rng.integers(100, 200, 30)))
                      for i in range(n_cols)]
        li, ri = multi_key_matches(left_keys, right_keys).pairs()
        pairs = set(zip(li.tolist(), ri.tolist()))
        expected = {
            (i, j)
            for i in range(50) for j in range(31)
            if all(left_keys[c][i] == right_keys[c][j] for c in range(n_cols))
        }
        assert (0, 0) in expected
        assert pairs == expected
        assert count_matches(left_keys, right_keys) == len(expected)

    def test_dense_ids_stay_in_range(self):
        left_keys = [np.arange(1000, dtype=np.int64) * (k + 1) + k
                     for k in range(30)]
        right_keys = [arr.copy() for arr in left_keys]
        ids, span = dense_ids([np.concatenate(pair)
                               for pair in zip(left_keys, right_keys)])
        lc, rc = ids[:1000], ids[1000:]
        assert lc.dtype == np.int64 and rc.dtype == np.int64
        assert lc.min() >= 0 and rc.min() >= 0 and ids.max() < span
        # Every row matches exactly its own counterpart.
        assert np.array_equal(lc, rc)
        assert len(np.unique(lc)) == 1000
        assert count_matches(left_keys, right_keys) == 1000


def _key_shape(name: str) -> tuple[np.ndarray, np.ndarray]:
    """One (probe keys, build keys) pair per join-key shape the engine sees."""
    rng = np.random.default_rng(11)
    if name == "int-duplicates-both-sides":
        return rng.integers(0, 10, 60), rng.integers(0, 10, 40)
    if name == "negative-ints":
        return rng.integers(-20, 21, 50), rng.integers(-20, 21, 50)
    if name == "float-keys":
        pool = np.array([-1.5, 0.0, 0.25, 3.0, 1e9])
        return pool[rng.integers(0, 5, 40)], pool[rng.integers(0, 5, 30)]
    if name == "string-keys":
        pool = np.array(["", "a", "ab", "b", "zz"], dtype=object)
        return pool[rng.integers(0, 5, 40)], pool[rng.integers(0, 5, 30)]
    if name == "int32-codes":
        return (rng.integers(0, 8, 50).astype(np.int32),
                rng.integers(0, 8, 30).astype(np.int32))
    if name == "single-hot-key":
        return np.full(30, 7, dtype=np.int64), np.full(25, 7, dtype=np.int64)
    if name == "unique-build-side":
        return rng.integers(1, 60, 80), rng.permutation(np.arange(1, 51))
    if name == "disjoint":
        return rng.integers(0, 10, 20), rng.integers(10, 20, 20)
    if name == "empty-build-side":
        return rng.integers(0, 10, 20), np.empty(0, dtype=np.int64)
    if name == "empty-probe-side":
        return np.empty(0, dtype=np.int64), rng.integers(0, 10, 20)
    raise ValueError(name)


KEY_SHAPES = ("int-duplicates-both-sides", "negative-ints", "float-keys",
              "string-keys", "int32-codes", "single-hot-key",
              "unique-build-side", "disjoint", "empty-build-side",
              "empty-probe-side")


class TestEquiJoinOrder:
    """``equi_join_indices`` pins the order of the engine's one match
    kernel: the hash and predicate-carrying NL joins expand their matches
    from the same runs, so its documented output order is what fixes the
    row order of every join."""

    @pytest.mark.parametrize("shape", KEY_SHAPES)
    def test_pairs_in_documented_order(self, shape):
        """Exactly the nested-loop match pairs, probe-major, and within one
        probe row the build rows in their stable sort order."""
        left, right = _key_shape(shape)
        build_order = sorted(range(len(right)), key=lambda j: right[j])
        expected = [(i, j) for i in range(len(left)) for j in build_order
                    if left[i] == right[j]]
        li, ri = equi_join_indices(left, right)
        assert li.dtype == np.int64 and ri.dtype == np.int64
        assert list(zip(li.tolist(), ri.tolist())) == expected
        assert count_matches([left], [right]) == len(expected)


#: Join predicates between ci (left input) and mk (right input); a pair
#: written mk-first must be oriented by the operator, not by the caller.
HASH_JOIN_KEYS = {
    "one-key": ((("ci", "movie_id"), ("mk", "movie_id")),),
    "one-key-written-right-first": ((("mk", "movie_id"), ("ci", "movie_id")),),
    "two-keys": ((("ci", "movie_id"), ("mk", "movie_id")),
                 (("ci", "person_id"), ("mk", "keyword_id"))),
    "two-keys-mixed-orientation": ((("ci", "movie_id"), ("mk", "movie_id")),
                                   (("mk", "keyword_id"), ("ci", "person_id"))),
}


class TestHashJoinOperator:
    @pytest.mark.parametrize("keys", sorted(HASH_JOIN_KEYS))
    def test_rows_and_order_match_nested_loop(self, tiny_db, executor, keys):
        """A HASH join node emits exactly the nested-loop result, probe row
        by probe row, with each probe row's matches in build-row order."""
        from repro.plan.physical import JoinNode, PhysicalPlan, ScanNode

        predicates = tuple(JoinPredicate(ColumnRef(*a), ColumnRef(*b))
                           for a, b in HASH_JOIN_KEYS[keys])
        note = Comparison(ColumnRef("ci", "note"), "=", "(voice)")
        join = JoinNode(left=ScanNode(relation=RelationRef.base("ci", "ci"),
                                      filters=(note,)),
                        right=ScanNode(relation=RelationRef.base("mk", "mk")),
                        predicates=predicates, method=JoinMethod.HASH)
        plan = PhysicalPlan(query_name=keys, root=join,
                            output_columns=(ColumnRef("ci", "id"),
                                            ColumnRef("mk", "id")))
        result = executor.execute(plan)

        ci, mk = tiny_db.table("ci"), tiny_db.table("mk")
        ci_cols = [ref for pair in HASH_JOIN_KEYS[keys] for ref in pair
                   if ref[0] == "ci"]
        mk_cols = [ref for pair in HASH_JOIN_KEYS[keys] for ref in pair
                   if ref[0] == "mk"]
        by_key: dict[tuple, list[int]] = {}
        for j in range(mk.num_rows):
            key = tuple(int(mk.column(c)[j]) for _, c in mk_cols)
            by_key.setdefault(key, []).append(int(mk.column("id")[j]))
        expected = [
            (int(ci.column("id")[i]), mk_id)
            for i in np.nonzero(ci.column_values("note") == "(voice)")[0]
            for mk_id in by_key.get(tuple(int(ci.column(c)[i])
                                          for _, c in ci_cols), [])]
        assert expected
        assert result.join_rows == len(expected)
        assert result.table.to_rows() == expected


@pytest.fixture()
def executor(tiny_db):
    return Executor(tiny_db)


@pytest.fixture()
def optimizer(tiny_db):
    return Optimizer(tiny_db)


def brute_force_count(db, year_cutoff=2000, kw_prefix="kw_0", gender="f"):
    """Reference implementation of the 5-way query via numpy masks."""
    t, mk, k, ci, n = (db.table(x) for x in ("t", "mk", "k", "ci", "n"))
    t_ok = set(t.column("id")[t.column("year") > year_cutoff].tolist())
    k_ok = set(k.column("id")[[str(v).startswith(kw_prefix)
                               for v in k.column_values("kw")]].tolist())
    n_ok = set(n.column("id")[n.column_values("gender") == gender].tolist())
    mk_rows = [(m, kw) for m, kw in zip(mk.column("movie_id"), mk.column("keyword_id"))
               if m in t_ok and kw in k_ok]
    ci_rows = [(m, p) for m, p in zip(ci.column("movie_id"), ci.column("person_id"))
               if m in t_ok and p in n_ok]
    from collections import Counter
    mk_count = Counter(m for m, _ in mk_rows)
    ci_count = Counter(m for m, _ in ci_rows)
    return sum(mk_count[m] * ci_count[m] for m in mk_count if m in ci_count)


class TestExecutor:
    def test_five_way_join_matches_bruteforce(self, tiny_db, executor, optimizer):
        plan = optimizer.plan(five_way_query())
        result = executor.execute(plan)
        count = result.table.to_rows()[0][0]
        assert count == brute_force_count(tiny_db)

    def test_plan_independent_result(self, tiny_db, executor):
        """Default and oracle-driven plans must produce identical results."""
        spj = five_way_query()
        default_plan = Optimizer(tiny_db).plan(spj)
        optimal_plan = Optimizer(tiny_db).with_estimator(
            OracleCardinalityEstimator(tiny_db)).plan(spj)
        a = executor.execute(default_plan).table.to_rows()
        b = executor.execute(optimal_plan).table.to_rows()
        assert a == b

    def test_actual_rows_recorded(self, executor, optimizer):
        plan = optimizer.plan(five_way_query())
        executor.execute(plan)
        for join in plan.join_nodes():
            assert join.actual_rows is not None
            assert join.actual_time is not None

    def test_output_columns_survive(self, executor, optimizer):
        spj = five_way_query()
        sub = SPJQuery(name="sub",
                       relations=(RelationRef.base("t", "t"),
                                  RelationRef.base("mk", "mk")),
                       join_predicates=(JoinPredicate(ColumnRef("mk", "movie_id"),
                                                      ColumnRef("t", "id")),),
                       filters=spj.filters_for(spj.relation("t")))
        plan = replace(optimizer.plan(sub),
                       output_columns=(ColumnRef("mk", "keyword_id"),
                                       ColumnRef("t", "year")))
        result = executor.execute(plan)
        assert "mk.keyword_id" in result.table.column_names
        assert "t.year" in result.table.column_names

    def test_cache_reuses_subtree_results(self, executor, optimizer):
        from repro.plan.physical import PhysicalPlan

        plan = optimizer.plan(five_way_query())
        columns = FIVE_WAY_COLUMNS
        cache = {}
        first_join = plan.join_nodes()[0]
        executor.execute(PhysicalPlan("sub", first_join, output_columns=columns),
                         cache=cache)
        assert id(first_join) in cache
        # Executing the full plan afterwards must not clear or bypass the
        # cache.  Its scalar aggregates read the root join's matches, which
        # are not a chunk: the root is cached only by a plan that outputs it.
        executor.execute(plan, cache=cache)
        assert id(first_join) in cache and id(plan.root) not in cache
        executor.execute(PhysicalPlan("full", plan.root, output_columns=columns),
                         cache=cache)
        assert id(plan.root) in cache

    def test_scalar_aggregates(self, executor, optimizer, tiny_db):
        spj = five_way_query()
        plan = optimizer.plan(spj)
        result = executor.execute(plan)
        row = result.table.to_rows()[0]
        assert row[0] == brute_force_count(tiny_db)
        assert row[1] > 2000  # min year respects the filter

    def test_empty_result_count_zero(self, executor, optimizer, tiny_schema):
        spj = SPJQuery(
            name="empty",
            relations=(RelationRef.base("t", "t"),),
            filters=(Comparison(ColumnRef("t", "year"), ">", 3000),),
            aggregates=(AggregateSpec("count", None, "cnt"),),
        )
        result = executor.execute(Optimizer(executor.database).plan(spj))
        assert result.table.to_rows()[0][0] == 0

    def test_strings_stay_encoded_from_scan_to_result_to_temp(
            self, tiny_db, executor, optimizer):
        """The result of a projection holds codes + the base dictionary
        (four bytes a row materialized); registered as a temporary it is
        filtered in code space and still joins on values."""
        from repro.catalog.statistics import TableStats

        spj = SPJQuery(name="people", relations=(RelationRef.base("n", "n"),),
                       filters=(Comparison(ColumnRef("n", "id"), "<=", 100),),
                       projections=(ColumnRef("n", "gender"), ColumnRef("n", "id")))
        result = executor.execute(optimizer.plan(spj))
        base = tiny_db.table("n")
        assert result.table.dictionary("n.gender") is base.dictionary("gender")
        assert result.table.column("n.gender").dtype == np.int32
        assert result.materialized_bytes == 100 * (4 + 8)
        assert result.memory_bytes == 100 * (4 + 8)
        assert (list(result.table.column_values("n.gender"))
                == list(base.column_values("gender")[:100]))

        name = tiny_db.register_temp(result.table, TableStats.row_count_only(100),
                                     frozenset({"n"}))
        try:
            over_temp = SPJQuery(
                name="over-temp",
                relations=(RelationRef.temp(name, frozenset({"n"})),
                           RelationRef.base("ci", "ci")),
                filters=(Comparison(ColumnRef("n", "gender"), "=", "f"),),
                join_predicates=(JoinPredicate(ColumnRef("ci", "person_id"),
                                               ColumnRef("n", "id")),),
                aggregates=(AggregateSpec("count", None, "cnt"),
                            AggregateSpec("max", ColumnRef("n", "gender"), "g")))
            final = executor.execute(optimizer.plan(over_temp))
            assert final.dict_predicates == 1
            person = tiny_db.table("ci").column("person_id")
            women = int(np.isin(person, np.arange(2, 101, 2)).sum())
            assert final.table.to_rows() == [(women, "f")]
        finally:
            tiny_db.drop_temp_tables()

    def test_temp_table_scan(self, tiny_db, executor, optimizer):
        """Materialized temporaries can be joined like base relations."""
        from repro.catalog.analyze import analyze_table

        sub = SPJQuery(name="sub",
                       relations=(RelationRef.base("t", "t"),
                                  RelationRef.base("mk", "mk")),
                       join_predicates=(JoinPredicate(ColumnRef("mk", "movie_id"),
                                                      ColumnRef("t", "id")),))
        result = executor.execute(replace(
            optimizer.plan(sub), output_columns=(ColumnRef("mk", "keyword_id"),)))
        stats = analyze_table(result.table)
        temp_name = tiny_db.register_temp(result.table, stats, frozenset({"t", "mk"}))
        temp_ref = RelationRef.temp(temp_name, frozenset({"t", "mk"}))
        joined = SPJQuery(
            name="over-temp",
            relations=(temp_ref, RelationRef.base("k", "k")),
            join_predicates=(JoinPredicate(ColumnRef("mk", "keyword_id"),
                                           ColumnRef("k", "id")),),
            aggregates=(AggregateSpec("count", None, "cnt"),),
        )
        final = executor.execute(optimizer.plan(joined))
        expected = executor.execute(optimizer.plan(SPJQuery(
            name="direct",
            relations=(RelationRef.base("t", "t"), RelationRef.base("mk", "mk"),
                       RelationRef.base("k", "k")),
            join_predicates=(JoinPredicate(ColumnRef("mk", "movie_id"),
                                           ColumnRef("t", "id")),
                             JoinPredicate(ColumnRef("mk", "keyword_id"),
                                           ColumnRef("k", "id"))),
            aggregates=(AggregateSpec("count", None, "cnt"),),
        )))
        tiny_db.drop_temp_tables()
        assert final.table.to_rows() == expected.table.to_rows()

    def test_index_nl_and_hash_agree(self, tiny_db, optimizer, executor):
        """Forcing hash joins produces the same result as index NL plans."""
        from repro.optimizer.join_enum import EnumeratorConfig

        spj = five_way_query()
        hash_only = Optimizer(tiny_db, config=EnumeratorConfig(
            enable_index_nl=False))
        a = executor.execute(hash_only.plan(spj)).table.to_rows()
        b = executor.execute(optimizer.plan(spj)).table.to_rows()
        assert a == b

    def test_index_nl_missing_index_rejected(self, tiny_db, executor):
        """An INDEX_NL join on an unindexed column is an execution error."""
        from repro.plan.physical import JoinNode, PhysicalPlan, ScanNode

        outer = ScanNode(relation=RelationRef.base("mk", "mk"))
        inner = ScanNode(relation=RelationRef.base("t", "t"))
        join = JoinNode(
            left=outer, right=inner,
            predicates=(JoinPredicate(ColumnRef("mk", "movie_id"),
                                      ColumnRef("t", "year")),),
            method=JoinMethod.INDEX_NL, index_column=ColumnRef("t", "year"))
        plan = PhysicalPlan(query_name="no-index", root=join)
        with pytest.raises(ExecutionError):
            executor.execute(plan)

    def test_operator_times_populated(self, executor, optimizer):
        plan = optimizer.plan(five_way_query())
        result = executor.execute(plan)
        joins = plan.join_nodes()
        # At least one entry per join plus the root aggregation (INDEX_NL
        # joins absorb their inner scan, so the scan count varies by plan).
        assert len(result.operator_times) > len(joins)
        assert "Aggregate" in result.operator_times
        for join in joins:
            label_aliases = "+".join(sorted(join.covered_aliases()))
            matching = [label for label in result.operator_times
                        if label.endswith(f"[{label_aliases}]")]
            assert matching, f"no operator time recorded for {label_aliases}"
            assert result.operator_times[matching[0]] == join.actual_time
        assert result.materialized_bytes > 0


def _ci_mk_join(name: str):
    """One join shape over the tiny database: ``ci`` (the left input)
    joins ``mk`` (the right one)."""
    from repro.plan.physical import JoinNode, ScanNode

    voice = Comparison(ColumnRef("ci", "note"), "=", "(voice)")
    inner_filters = {"index-nl-inner-filter":
                     (Comparison(ColumnRef("mk", "keyword_id"), "<=", 5),),
                     "cross-product": (Comparison(ColumnRef("mk", "id"), "<=", 30),)}
    predicates = () if name == "cross-product" else (
        JoinPredicate(ColumnRef("ci", "movie_id"), ColumnRef("mk", "movie_id")),)
    if name == "index-nl-extra-predicate":
        predicates += (JoinPredicate(ColumnRef("mk", "keyword_id"),
                                     ColumnRef("ci", "person_id")),)
    index_nl = name.startswith("index-nl")
    return JoinNode(
        left=ScanNode(relation=RelationRef.base("ci", "ci"), filters=(voice,)),
        right=ScanNode(relation=RelationRef.base("mk", "mk"),
                       filters=inner_filters.get(name, ())),
        predicates=predicates,
        method=JoinMethod.INDEX_NL if index_nl else JoinMethod.HASH,
        index_column=ColumnRef("mk", "movie_id") if index_nl else None)


JOIN_OPERATOR_CASES = ("hash", "index-nl", "index-nl-inner-filter",
                       "index-nl-extra-predicate", "cross-product")

#: What the join's consumers read: neither side, one, or both.
JOIN_READS = {"neither": frozenset(), "left": frozenset({"ci"}),
              "right": frozenset({"mk"}), "both": frozenset({"ci", "mk"})}


class TestJoinsKeepOnlyReadSides:
    """A join expands only the sides its consumers read, and still has the
    row count and row ids of the join that keeps both."""

    @staticmethod
    def _run(tiny_db, case: str, reads: frozenset[str]):
        """The join's chunk, from the operator the executor would pick."""
        from repro.executor.chunk import MaterializationStats, merge_chunks
        from repro.executor.operators import (CrossProduct, ExecContext,
                                              HashJoin, IndexNLJoin, Scan)

        node = _ci_mk_join(case)
        ctx = ExecContext(database=tiny_db, stats=MaterializationStats())
        left = Scan(node.left).execute(ctx)
        if node.method is JoinMethod.INDEX_NL:
            matches, right = IndexNLJoin(node).matches(ctx, left)
        else:
            right = Scan(node.right).execute(ctx)
            operator = HashJoin(node) if node.predicates else CrossProduct(node)
            matches = operator.matches(ctx, left, right)
        return merge_chunks(left, right, matches, reads, ctx.stats)

    @pytest.mark.parametrize("reads", sorted(JOIN_READS))
    @pytest.mark.parametrize("case", JOIN_OPERATOR_CASES)
    def test_rows_and_row_ids_of_the_join_keeping_both(self, tiny_db, case,
                                                        reads):
        both = self._run(tiny_db, case, JOIN_READS["both"])
        chunk = self._run(tiny_db, case, JOIN_READS[reads])
        assert both.num_rows > 0
        assert chunk.num_rows == both.num_rows
        assert sorted(alias for source in chunk.sources
                      for alias in source.aliases) == sorted(JOIN_READS[reads])
        for source in chunk.sources:
            (alias,) = source.aliases
            expected = both.source_for(alias).row_ids
            assert source.row_ids.dtype == expected.dtype
            assert np.array_equal(source.row_ids, expected)

    @pytest.mark.parametrize("case", ("index-nl-inner-filter",
                                      "index-nl-extra-predicate"))
    def test_index_nl_residual_runs_whatever_is_read(self, tiny_db, case):
        """The residual filters a join that keeps neither side too."""
        unfiltered = self._run(tiny_db, "index-nl", JOIN_READS["neither"])
        assert self._run(tiny_db, case, JOIN_READS["neither"]).num_rows \
            < unfiltered.num_rows


_S, _V = ColumnRef("p", "s"), ColumnRef("p", "v")

#: One inner filter per shape; ``True`` when the inner table's dictionary
#: translates it into code space (everything but the integer column).
INL_RESIDUALS = {
    "eq": (Comparison(_S, "=", "banana"), True),
    "ne": (Comparison(_S, "!=", "banana"), True),
    "lt": (Comparison(_S, "<", "cherry"), True),
    "between": (Between(_S, "banana", "date"), True),
    "in_list": (InList(_S, ("apple", "date", "kiwi")), True),
    "is_not_null": (IsNotNull(_S), True),
    "contains": (StringContains(_S, "an"), True),
    "prefix": (StringPrefix(_S, "gr"), True),
    "or": (OrPredicate((Comparison(_S, "=", "apple"),
                        StringPrefix(_S, "ch"))), True),
    "absent_literal": (Comparison(_S, "=", "kiwi"), True),
    "tautology": (Comparison(_S, "!=", "kiwi"), True),
    "numeric": (Comparison(_V, ">", 20), False),
}


@pytest.fixture(scope="module")
def nullable_strings_db() -> Database:
    """An outer table ``o`` probing an inner table ``p`` on its primary key;
    ``p.s`` is a dictionary-encoded string column with NULLs."""
    schema = Schema([
        TableSchema("p", [Column("id", DataType.INT),
                          Column("s", DataType.STRING),
                          Column("v", DataType.INT)], primary_key="id"),
        TableSchema("o", [Column("id", DataType.INT),
                          Column("p_id", DataType.INT)], primary_key="id",
                    foreign_keys=[ForeignKey("p_id", "p", "id")]),
    ])
    words = ["apple", "banana", "cherry", None, "date", "grape", "banana"]
    db = Database(schema)
    db.load_table(DataTable("p", {
        "id": np.arange(1, 61),
        "s": np.array([words[i % len(words)] for i in range(60)],
                      dtype=object),
        "v": np.arange(60) % 37,
    }))
    rng = np.random.default_rng(5)
    db.load_table(DataTable("o", {"id": np.arange(1, 301),
                                  # Some keys miss the inner table.
                                  "p_id": rng.integers(1, 66, 300)}))
    return db


class TestIndexNLResiduals:
    """An INDEX_NL join filters its probed inner rows exactly as a scan
    filters its table: same rows as the HASH plan, in code space."""

    @pytest.mark.parametrize("case", list(INL_RESIDUALS))
    def test_index_nl_residual_matches_hash(self, nullable_strings_db, case):
        from repro.plan.physical import JoinNode, PhysicalPlan, ScanNode

        residual, translated = INL_RESIDUALS[case]
        assert nullable_strings_db.table("p").is_encoded("s")

        def build(method):
            inner = ScanNode(relation=RelationRef.base("p", "p"),
                             filters=(residual,))
            join = JoinNode(
                left=ScanNode(relation=RelationRef.base("o", "o")),
                right=inner,
                predicates=(JoinPredicate(ColumnRef("o", "p_id"),
                                          ColumnRef("p", "id")),),
                method=method,
                index_column=(ColumnRef("p", "id")
                              if method is JoinMethod.INDEX_NL else None))
            return PhysicalPlan(query_name=f"residual_{case}", root=join,
                                output_columns=(ColumnRef("o", "id"), _S, _V))

        executor = Executor(nullable_strings_db)
        via_index = executor.execute(build(JoinMethod.INDEX_NL))
        via_hash = executor.execute(build(JoinMethod.HASH))
        # Each outer row matches at most one inner row: o.id orders rows.
        rows = sorted(via_index.table.to_rows(), key=lambda row: row[0])
        assert rows == sorted(via_hash.table.to_rows(), key=lambda row: row[0])
        assert (via_index.dict_predicates > 0) == translated
        if case == "absent_literal":
            assert rows == []
        else:
            # The residual held on every row, and rows survived it.
            columns = {_S: np.array([row[1] for row in rows], dtype=object),
                       _V: np.array([row[2] for row in rows])}
            assert rows and residual.evaluate(columns.__getitem__).all()


class TestSubplanCache:
    def test_subtree_shared_across_join_orders(self, tiny_db):
        """Two optimizers picking different physical plans share subtrees."""
        from repro.optimizer.join_enum import EnumeratorConfig

        cache = SubplanCache()
        executor = Executor(tiny_db, subplan_cache=cache)
        spj = five_way_query()
        default_plan = Optimizer(tiny_db).plan(spj)
        hash_plan = Optimizer(tiny_db, config=EnumeratorConfig(
            enable_index_nl=False)).plan(spj)
        a = executor.execute(default_plan).table.to_rows()
        assert cache.hits == 0 and len(cache) > 0
        b = executor.execute(hash_plan).table.to_rows()
        assert a == b
        # At minimum every filtered scan signature recurs across the plans.
        assert cache.hits > 0

    def test_full_plan_rerun_is_one_hit(self, tiny_db, optimizer):
        from repro.plan.physical import PhysicalPlan

        cache = SubplanCache()
        executor = Executor(tiny_db, subplan_cache=cache)
        spj = five_way_query()
        columns = FIVE_WAY_COLUMNS

        def output_rows(plan):
            """The plan's join rows: a scalar aggregate's root would read
            the matches and never cache a chunk."""
            return executor.execute(PhysicalPlan(
                spj.name, plan.root, output_columns=columns)).table.to_rows()

        first = output_rows(optimizer.plan(spj))
        hits_before = cache.hits
        replan = optimizer.plan(spj)
        second = output_rows(replan)
        assert first == second
        # The re-planned root has the same signature: served entirely from
        # the cache (the root hit short-circuits the whole subtree).
        assert cache.hits == hits_before + 1
        assert replan.root.actual_rows is not None
        # A scalar aggregate looks its root up first and aggregates the hit.
        fresh = Executor(tiny_db).execute(optimizer.plan(spj)).table.to_rows()
        assert executor.execute(replan).table.to_rows() == fresh
        assert cache.hits == hits_before + 2

    def test_temp_subtrees_are_neither_looked_up_nor_cached(
            self, tiny_db, optimizer, monkeypatch):
        from repro.catalog.analyze import analyze_table

        cache = SubplanCache()
        executor = Executor(tiny_db, subplan_cache=cache)
        keys = []
        for name in ("get", "put"):
            method = getattr(cache, name)
            monkeypatch.setattr(
                cache, name,
                lambda signature, *args, _method=method:
                    keys.append(signature) or _method(signature, *args))
        sub = SPJQuery(name="sub",
                       relations=(RelationRef.base("t", "t"),
                                  RelationRef.base("mk", "mk")),
                       join_predicates=(JoinPredicate(ColumnRef("mk", "movie_id"),
                                                      ColumnRef("t", "id")),))
        result = executor.execute(replace(
            optimizer.plan(sub), output_columns=(ColumnRef("mk", "keyword_id"),)))
        stats = analyze_table(result.table)
        temp_name = tiny_db.register_temp(result.table, stats,
                                          frozenset({"t", "mk"}))
        temp_ref = RelationRef.temp(temp_name, frozenset({"t", "mk"}))
        over_temp = SPJQuery(
            name="over-temp",
            relations=(temp_ref, RelationRef.base("k", "k")),
            join_predicates=(JoinPredicate(ColumnRef("mk", "keyword_id"),
                                           ColumnRef("k", "id")),),
            aggregates=(AggregateSpec("count", None, "cnt"),),
        )
        plan = optimizer.plan(over_temp)
        keys.clear()
        executor.execute(plan)
        tiny_db.drop_temp_tables()
        # Only the base scan of k is keyed; the temp scan and the join
        # over it have no signature, so the cache never sees them.
        assert plan.root.signature() is None
        assert [scans for scans, _preds in keys] == [
            frozenset({scan_signature(RelationRef.base("k", "k"), ())})] * 2
        assert cache.rejected == 0
        for (scans, _preds) in list(cache._entries):
            assert not any(scan[3] for scan in scans), "temp subtree was cached"

    def test_lru_eviction(self):
        from repro.executor.chunk import Chunk

        cache = SubplanCache(max_entries=2)
        chunks = Chunk((), 0)
        for i in range(4):
            sig = (frozenset({("scan", f"t{i}", f"t{i}", False, frozenset())}),
                   frozenset())
            cache.put(sig, chunks)
        assert len(cache) == 2

    def test_cache_rejects_second_database(self, tiny_db, tiny_schema):
        """Reusing one cache against a different database fails loudly."""
        from tests.conftest import build_tiny_database

        cache = SubplanCache()
        Executor(tiny_db, subplan_cache=cache)
        other_db = build_tiny_database(tiny_schema, seed=1)
        with pytest.raises(ValueError, match="bound to a different Database"):
            Executor(other_db, subplan_cache=cache)
        # clear() unbinds, allowing deliberate reuse from scratch.
        cache.clear()
        Executor(other_db, subplan_cache=cache)

    def test_total_byte_budget_enforced(self):
        from repro.executor.chunk import Chunk

        # Sourceless chunks cost num_rows * 8 bytes each.
        cache = SubplanCache(max_entries=100, max_rows=10 ** 9,
                             max_bytes=3_000 * 8)
        for i in range(10):
            sig = (frozenset({("scan", f"t{i}", f"t{i}", False, frozenset())}),
                   frozenset())
            cache.put(sig, Chunk((), 1_000))
        assert cache.total_bytes <= cache.max_bytes
        assert len(cache) == 3
        # An entry that alone exceeds the budget is rejected outright.
        big_sig = (frozenset({("scan", "big", "big", False, frozenset())}),
                   frozenset())
        rejected_before = cache.rejected
        cache.put(big_sig, Chunk((), 10_000))
        assert cache.rejected == rejected_before + 1
        assert len(cache) == 3

    def test_unhashable_filter_literal_skips_caching(self, tiny_db):
        """A filter holding an unhashable literal must not break execution."""
        from repro.plan.expressions import InList
        from repro.plan.physical import PhysicalPlan, ScanNode

        cache = SubplanCache()
        executor = Executor(tiny_db, subplan_cache=cache)
        scan = ScanNode(relation=RelationRef.base("t", "t"),
                        filters=(InList(ColumnRef("t", "year"), [2015, 2016]),))
        plan = PhysicalPlan(query_name="unhashable", root=scan,
                            output_columns=(ColumnRef("t", "year"),))
        result = executor.execute(plan)
        assert result.num_rows > 0
        assert set(result.table.column("t.year").tolist()) == {2015, 2016}
        assert len(cache) == 0  # nothing cached, nothing crashed



class TestAggregationHelpers:
    def test_group_aggregate(self):
        columns = {
            "g.key": np.array(["a", "b", "a", "a"], dtype=object),
            "v.x": np.array([1, 2, 3, 4]),
        }
        out = group_aggregate(DataTable("in", columns), (ColumnRef("g", "key"),),
                              (AggregateSpec("sum", ColumnRef("v", "x"), "total"),
                               AggregateSpec("count", None, "cnt")))
        rows = {tuple(r) for r in out.to_rows()}
        assert rows == {("a", 8, 3), ("b", 2, 1)}

    def test_group_aggregate_without_groups_is_scalar(self):
        columns = {"v.x": np.array([1.0, 2.0, 3.0])}
        out = group_aggregate(DataTable("in", columns), (),
                              (AggregateSpec("avg", ColumnRef("v", "x"), "mean"),))
        assert out.to_rows()[0][0] == pytest.approx(2.0)

    def test_group_aggregate_min_max_avg(self):
        columns = {
            "g.key": np.array([2, 1, 2, 1, 2]),
            "v.x": np.array([5.0, 1.0, 3.0, 7.0, 4.0]),
            "v.s": np.array(["b", "z", "a", "c", "d"], dtype=object),
        }
        out = group_aggregate(
            DataTable("in", columns), (ColumnRef("g", "key"),),
            (AggregateSpec("min", ColumnRef("v", "x"), "lo"),
             AggregateSpec("max", ColumnRef("v", "x"), "hi"),
             AggregateSpec("avg", ColumnRef("v", "x"), "mean"),
             AggregateSpec("min", ColumnRef("v", "s"), "first_s")))
        rows = {tuple(r) for r in out.to_rows()}
        assert rows == {(1, 1.0, 7.0, 4.0, "c"), (2, 3.0, 5.0, 4.0, "a")}
        # Object-dtype output contract is preserved.
        for name in ("lo", "hi", "mean", "first_s"):
            assert out.column(name).dtype == object

    def test_group_aggregate_empty_input(self):
        columns = {"g.key": np.array([], dtype=np.int64),
                   "v.x": np.array([], dtype=np.float64)}
        out = group_aggregate(DataTable("in", columns), (ColumnRef("g", "key"),),
                              (AggregateSpec("sum", ColumnRef("v", "x"), "total"),
                               AggregateSpec("count", None, "cnt")))
        assert out.num_rows == 0

    def test_group_aggregate_matches_python_reference(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 17, 400)
        vals = rng.normal(size=400)
        columns = {"g.k": keys, "v.x": vals}
        out = group_aggregate(
            DataTable("in", columns), (ColumnRef("g", "k"),),
            (AggregateSpec("sum", ColumnRef("v", "x"), "s"),
             AggregateSpec("min", ColumnRef("v", "x"), "lo"),
             AggregateSpec("max", ColumnRef("v", "x"), "hi"),
             AggregateSpec("avg", ColumnRef("v", "x"), "m"),
             AggregateSpec("count", None, "c")))
        by_key = {}
        for k, v in zip(keys.tolist(), vals.tolist()):
            by_key.setdefault(k, []).append(v)
        got = {row[0]: row[1:] for row in out.to_rows()}
        assert set(got) == set(by_key)
        for k, members in by_key.items():
            s, lo, hi, m, c = got[k]
            assert s == pytest.approx(sum(members))
            assert lo == min(members) and hi == max(members)
            assert m == pytest.approx(sum(members) / len(members))
            assert c == len(members)

    def test_group_aggregate_survives_span_overflow(self):
        """Many high-cardinality group-by columns must not overflow int64.

        40 key columns with ~100 distinct values each give a naive span
        product of 100**40 -- far past int64 -- so this exercises the
        re-uniquify fallback (the multi-key join's encoding, dense_ids).  Rows with
        identical composites must land in one group, wrapped ids must not
        merge distinct composites.
        """
        rng = np.random.default_rng(11)
        n_rows, n_cols = 60, 40
        keys = [rng.integers(0, 100, n_rows) for _ in range(n_cols)]
        # Duplicate the first ten rows so some groups have exactly 2 members.
        keys = [np.concatenate([arr, arr[:10]]) for arr in keys]
        columns = {f"g.k{i}": arr for i, arr in enumerate(keys)}
        columns["v.x"] = np.ones(n_rows + 10, dtype=np.int64)
        refs = tuple(ColumnRef("g", f"k{i}") for i in range(n_cols))
        out = group_aggregate(DataTable("in", columns), refs,
                              (AggregateSpec("count", None, "cnt"),))
        composites = {tuple(arr[i] for arr in keys) for i in range(n_rows + 10)}
        assert out.num_rows == len(composites)
        counts = {int(c) for c in out.column("cnt")}
        assert counts == {1, 2}

    def test_union_all(self):
        a = DataTable("a", {"x": np.array([1, 2])})
        b = DataTable("b", {"x": np.array([3])})
        merged = union_all([a, b])
        assert list(merged.column("x")) == [1, 2, 3]

    def test_union_all_empty(self):
        assert union_all([]).num_rows == 0

    def test_union_all_keeps_codes_only_under_one_dictionary(self):
        shared = np.array(["a", "b"], dtype=object)
        a = DataTable("a", {"s": np.array([0, 1], dtype=np.int32)},
                      dictionaries={"s": shared})
        b = DataTable("b", {"s": np.array([1, -1], dtype=np.int32)},
                      dictionaries={"s": shared})
        merged = union_all([a, b])
        assert merged.dictionary("s") is shared
        assert merged.column("s").dtype == np.int32
        assert merged.to_rows() == [("a",), ("b",), ("b",), (None,)]

        # Same strings, another dictionary: code 0 means "b" there.
        other = DataTable("c", {"s": np.array([0, 1], dtype=np.int32)},
                          dictionaries={"s": np.array(["b", "c"], dtype=object)})
        raw = DataTable("d", {"s": np.array(["z"], dtype=object)})
        merged = union_all([a, other, raw])
        assert not merged.is_encoded("s")
        assert merged.to_rows() == [("a",), ("b",), ("b",), ("c",), ("z",)]


def _encoded(values: list) -> tuple[np.ndarray, np.ndarray]:
    from repro.storage.dictionary import encode_column

    return encode_column(np.array(values, dtype=object))


class TestNullsInCodeSpace:
    """NULL strings as group keys and under MIN/MAX (code -1)."""

    def test_null_key_forms_its_own_group_sorted_first(self):
        codes, dictionary = _encoded(["b", None, "a", None, "b"])
        table = DataTable("in", {"g.k": codes, "v.x": np.arange(5)},
                          dictionaries={"g.k": dictionary})
        out = group_aggregate(table, (ColumnRef("g", "k"),),
                              (AggregateSpec("sum", ColumnRef("v", "x"), "s"),
                               AggregateSpec("count", None, "c")))
        assert out.dictionary("g.k") is dictionary
        assert out.to_rows() == [(None, 4, 2), ("a", 2, 1), ("b", 4, 2)]

    def test_string_min_max_skip_nulls(self):
        codes, dictionary = _encoded(["m", None, "c", None, None, "x"])
        table = DataTable("in", {"g.k": np.array([0, 0, 0, 1, 1, 2]),
                                 "v.s": codes},
                          dictionaries={"v.s": dictionary})
        aggregates = (AggregateSpec("min", ColumnRef("v", "s"), "lo"),
                      AggregateSpec("max", ColumnRef("v", "s"), "hi"))
        out = group_aggregate(table, (ColumnRef("g", "k"),), aggregates)
        assert out.to_rows() == [(0, "c", "m"), (1, None, None), (2, "x", "x")]
        assert out.column("lo").dtype == object
        assert group_aggregate(table, (), aggregates).to_rows() == [("c", "x")]

    def test_all_null_scalar_min_max_is_none(self):
        codes, dictionary = _encoded([None, None])
        table = DataTable("in", {"v.s": codes}, dictionaries={"v.s": dictionary})
        out = group_aggregate(table, (),
                              (AggregateSpec("min", ColumnRef("v", "s"), "lo"),
                               AggregateSpec("max", ColumnRef("v", "s"), "hi")))
        assert out.to_rows() == [(None, None)]


AGGREGATES = (
    AggregateSpec("count", None, "n"),
    AggregateSpec("sum", ColumnRef("v", "i"), "sum_i"),
    AggregateSpec("min", ColumnRef("v", "i"), "min_i"),
    AggregateSpec("max", ColumnRef("v", "i"), "max_i"),
    AggregateSpec("avg", ColumnRef("v", "i"), "avg_i"),
    AggregateSpec("sum", ColumnRef("v", "f"), "sum_f"),
    AggregateSpec("min", ColumnRef("v", "f"), "min_f"),
    AggregateSpec("max", ColumnRef("v", "f"), "max_f"),
    AggregateSpec("avg", ColumnRef("v", "f"), "avg_f"),
    AggregateSpec("min", ColumnRef("v", "enc"), "min_enc"),
    AggregateSpec("max", ColumnRef("v", "enc"), "max_enc"),
    AggregateSpec("min", ColumnRef("v", "raw"), "min_raw"),
    AggregateSpec("max", ColumnRef("v", "raw"), "max_raw"),
)
#: Sums accumulated by bincount (row order) vs. reduceat (pairwise): a few
#: ulps over at most 260 float64 addends.
FLOAT_SUM_RTOL = 1e-12


class TestAggregateKernelMatchesReference:
    """The code-space kernel against the previous one (tests/reference_aggregate.py):
    same values, same row order, same ``type()`` of every output element."""

    KEY_KINDS = ("encoded", "narrow_int", "wide_int", "float", "object")
    SHAPES = ("empty", "one_group", "few_groups", "all_distinct", "span_overflow")

    @staticmethod
    def _key_values(kind: str, shape: str, rows: int, rng) -> np.ndarray:
        """One key column's values (object strings for the string kinds)."""
        distinct = {"one_group": 1, "few_groups": 4}.get(shape, max(rows, 1))
        if shape == "span_overflow":
            distinct = 90
        if kind in ("encoded", "object"):
            # "" stands in for NULL on the reference side (see _run).
            pool = np.array([""] + [f"s{i:04d}" for i in range(1, distinct)],
                            dtype=object)
        elif kind == "narrow_int":
            # Gaps: most slots of the dense id table stay empty.
            pool = (np.arange(distinct) - distinct // 2) * 3
        elif kind == "wide_int":
            pool = (np.arange(distinct) - distinct // 2) * (2 ** 40 + 7)
        else:
            pool = (np.arange(distinct) - distinct // 2) * 0.37
        if shape == "all_distinct":
            return rng.permutation(pool)[:rows]
        return pool[rng.integers(0, len(pool), rows)]

    def _run(self, kind: str, shape: str, group: bool):
        from tests.reference_aggregate import group_aggregate as reference

        rng = np.random.default_rng(
            [self.KEY_KINDS.index(kind), self.SHAPES.index(shape)])
        rows = {"empty": 0, "span_overflow": 260}.get(shape, 200)
        num_keys = 12 if shape == "span_overflow" else 2
        group_by = tuple(ColumnRef("g", f"k{i}") for i in range(num_keys))
        decoded: dict[str, np.ndarray] = {}   # what the reference reads
        columns: dict[str, np.ndarray] = {}   # what the kernel reads
        dictionaries: dict[str, np.ndarray] = {}
        for ref in group_by:
            values = self._key_values(kind, shape, rows, rng)
            if shape == "span_overflow":
                # Repeat rows so composites have more than one member.
                values = np.concatenate([values[:200], values[:60]])
            decoded[ref.qualified] = columns[ref.qualified] = values
            if kind == "encoded":
                # The "" key becomes a real NULL, under a dictionary wider
                # than the values present (as borrowed from a base table);
                # the unused strings sort last, so the key encoder, which
                # reads the codes present, sees the same span either way.
                nulled = [None if v == "" else v for v in values]
                unused = 5 if shape == "few_groups" else 1000
                codes, dictionary = _encoded(
                    nulled + [f"zz{i}" for i in range(unused)])
                columns[ref.qualified] = codes[:rows]
                dictionaries[ref.qualified] = dictionary
        strings = np.array([f"w{i:03d}" for i in rng.integers(0, 50, rows)],
                           dtype=object)
        codes, dictionary = _encoded(list(strings) + ["w999"])
        dictionaries["v.enc"] = dictionary
        decoded.update({"v.i": rng.integers(-10 ** 6, 10 ** 6, rows),
                        "v.f": rng.normal(size=rows) * 1e3,
                        "v.enc": strings, "v.raw": strings})
        columns.update({"v.i": decoded["v.i"], "v.f": decoded["v.f"],
                        "v.enc": codes[:rows], "v.raw": strings})
        table = DataTable("in", columns, dictionaries=dictionaries)

        keys = group_by if group else ()
        expected = reference(decoded, keys, AGGREGATES)
        actual = group_aggregate(table, keys, AGGREGATES)
        assert actual.column_names == expected.column_names
        assert actual.num_rows == expected.num_rows
        if shape == "one_group" and rows:
            assert actual.num_rows == 1
        if shape == "all_distinct" and group:
            assert actual.num_rows == rows
        for name in expected.column_names:
            want = expected.column(name)
            got = actual.column_values(name, cache=False)
            if name in dictionaries:
                assert actual.dictionary(name) is dictionaries[name]
                want = np.where(want == "", None, want)
            assert len(got) == len(want), name
            for g, w in zip(got, want):
                assert type(g) is type(w), (name, type(g), type(w))
                if name in ("sum_f", "avg_f"):
                    assert g == pytest.approx(w, rel=FLOAT_SUM_RTOL), name
                else:
                    assert g == w, name

    @pytest.mark.parametrize("num_keys", (1, 2), ids=("bincount", "sort"))
    def test_key_value_is_the_groups_first_row(self, num_keys):
        """Equal keys that are distinguishable (0.0 and -0.0): both kernels
        show the value of the group's first row.  One key of 1500 values
        over 3000 rows is a dense span; the same key twice is 1500**2."""
        from tests.reference_aggregate import group_aggregate as reference

        keys = np.arange(3000, dtype=np.float64) % 1500
        keys[keys == 0] = [-0.0, 0.0]
        group_by = tuple(ColumnRef("g", f"k{i}") for i in range(num_keys))
        columns = {ref.qualified: keys for ref in group_by}
        aggregates = (AggregateSpec("count", None, "n"),)
        expected = reference(columns, group_by, aggregates)
        actual = group_aggregate(DataTable("in", columns), group_by, aggregates)
        assert np.signbit(expected.column("g.k0")[0])
        np.testing.assert_array_equal(np.signbit(actual.column("g.k0")),
                                      np.signbit(expected.column("g.k0")))
        assert actual.to_rows() == expected.to_rows()

    @pytest.mark.parametrize("spans", ((16, 29), (15, 31)),
                             ids=("at-limit", "past-limit"))
    def test_combined_span_straddling_the_dense_limit(self, spans):
        """Two integer keys, each addressed directly, whose combined span
        is exactly ``dense_span``'s limit for 100 rows (464, found by
        ``bincount``) or one past it (465, found by sorting): the same
        groups, order and elements as the reference either way."""
        from repro.executor.aggregates import _find_groups
        from repro.storage.index import dense_span
        from tests.reference_aggregate import group_aggregate as reference

        rows = 100
        rng = np.random.default_rng(list(spans))
        group_by = (ColumnRef("g", "k0"), ColumnRef("g", "k1"))
        columns = {}
        for ref, span in zip(group_by, spans):
            # Both ends present, so the key's span is exactly ``span``.
            values = rng.integers(0, span, rows) - 7
            values[:2] = (-7, span - 8)
            columns[ref.qualified] = values
        strings = np.array([f"w{i:03d}" for i in rng.integers(0, 50, rows)],
                           dtype=object)
        codes, dictionary = _encoded(list(strings))
        decoded = dict(columns, **{"v.i": rng.integers(-10 ** 6, 10 ** 6, rows),
                                   "v.f": rng.normal(size=rows) * 1e3,
                                   "v.enc": strings, "v.raw": strings})
        table = DataTable("in", dict(decoded, **{"v.enc": codes}),
                          dictionaries={"v.enc": dictionary})
        dense = spans[0] * spans[1] <= 4 * rows + 64
        assert bool(dense_span(0, spans[0] * spans[1] - 1, rows)) == dense
        groups = _find_groups(table, group_by, rows)
        assert (groups._order is None) == dense

        expected = reference(decoded, group_by, AGGREGATES)
        actual = group_aggregate(table, group_by, AGGREGATES)
        assert actual.column_names == expected.column_names
        assert actual.num_rows == expected.num_rows
        for name in expected.column_names:
            for g, w in zip(actual.column(name), expected.column(name)):
                assert type(g) is type(w), (name, type(g), type(w))
                if name in ("sum_f", "avg_f"):
                    assert g == pytest.approx(w, rel=FLOAT_SUM_RTOL), name
                else:
                    assert g == w, name

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kind", KEY_KINDS)
    def test_grouped(self, kind, shape):
        self._run(kind, shape, group=True)

    @pytest.mark.parametrize("shape", ("empty", "few_groups"))
    def test_scalar(self, shape):
        self._run("narrow_int", shape, group=False)


class TestEmptyTablePath:
    """The empty-table edge path through Scan and Aggregate."""

    @pytest.fixture()
    def empty_db(self, tiny_schema):
        from repro.storage.database import Database

        db = Database(tiny_schema)
        db.load_table(DataTable("t", {
            "id": np.array([], dtype=np.int64),
            "year": np.array([], dtype=np.int64),
            "kind": np.array([], dtype=object),
        }))
        return db

    def test_scan_and_aggregate_over_empty_table(self, empty_db):
        spj = SPJQuery(
            name="empty",
            relations=(RelationRef.base("t", "t"),),
            filters=(Comparison(ColumnRef("t", "year"), ">", 2000),),
            aggregates=(AggregateSpec("count", None, "row_count"),
                        AggregateSpec("min", ColumnRef("t", "year"), "min_year")),
        )
        plan = Optimizer(empty_db).plan(spj)
        result = Executor(empty_db).execute(plan)
        assert result.join_rows == 0
        rows = result.table.to_rows()
        assert rows == [(0, None)]

    def test_unfiltered_empty_scan(self, empty_db):
        spj = SPJQuery(
            name="empty-unfiltered",
            relations=(RelationRef.base("t", "t"),),
            aggregates=(AggregateSpec("count", None, "row_count"),),
        )
        result = Executor(empty_db).execute(Optimizer(empty_db).plan(spj))
        assert result.table.to_rows() == [(0,)]
