"""Fused-kernel and dictionary-translation correctness.

The compiled scan hot path must be **observationally invisible**: every
acceleration layer -- selectivity-ordered fused predicate evaluation and
code-space predicate translation over dictionary-encoded strings -- has to
produce row-id vectors bit-identical to the naive engine it replaces.  The
tests here check each layer in isolation (property-style sweeps against the
naive per-predicate conjunction, mirroring ``tests/test_zonemaps.py``) and
then end to end through the Scan operator and a full hash-join plan, plus
two regressions (``InList`` literal coercion and dtype-aware ANALYZE null
handling).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.analyze import analyze_columns, analyze_table
from repro.executor.chunk import MaterializationStats
from repro.executor.executor import Executor
from repro.executor.kernels import PredicateCompiler, selectivity_rank
from repro.executor.operators import ExecContext, Scan
from repro.optimizer.optimizer import Optimizer
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
from repro.plan.physical import JoinMethod, JoinNode, ScanNode
from repro.catalog.schema import Column, ForeignKey, Schema, TableSchema
from repro.catalog.types import DataType
from repro.storage.database import Database, IndexConfig
from repro.storage.dictionary import translate_filters
from repro.storage.table import DataTable
from tests.test_zonemaps import _random_floats, _random_ints, _random_strings

SEED = 20260808


# ----------------------------------------------------------------------
# Random predicate sampling (per-column refs, multi-dtype tables)
# ----------------------------------------------------------------------
def _predicates_for(rng, ref: ColumnRef, values: np.ndarray) -> list:
    """Predicate shapes valid for one column, mirroring test_zonemaps."""
    non_null = [v for v in values
                if v is not None and not (isinstance(v, float) and np.isnan(v))]
    preds = [IsNotNull(ref)]
    if values.dtype == object:
        strings = [v for v in non_null if isinstance(v, str)] or ["s_000"]
        pick = lambda: strings[int(rng.integers(len(strings)))]
        preds += [
            Comparison(ref, "=", pick()),
            Comparison(ref, "!=", pick()),
            InList(ref, (pick(), pick(), "zz_missing")),
            StringPrefix(ref, pick()[:int(rng.integers(1, 4))]),
            StringContains(ref, pick()[2:4]),
            OrPredicate((Comparison(ref, "=", pick()),
                         StringPrefix(ref, pick()[:2]))),
        ]
    else:
        lo, hi = float(rng.uniform(-60, 40)), float(rng.uniform(-40, 60))
        point = (int(rng.integers(-55, 55)) if values.dtype.kind == "i"
                 else float(rng.uniform(-60, 60)))
        preds += [
            Comparison(ref, str(rng.choice(["=", "!=", "<", "<=", ">", ">="])),
                       point),
            Between(ref, min(lo, hi), max(lo, hi)),
            InList(ref, (point, point + 1, point - 17)),
            OrPredicate((Comparison(ref, "<", lo),
                         Comparison(ref, ">", hi))),
        ]
    return preds


def _naive_positions(predicates, resolve, length: int) -> np.ndarray:
    """The loop the fused kernel replaced: one full-range pass per predicate."""
    mask = np.ones(length, dtype=bool)
    for predicate in predicates:
        mask &= np.asarray(predicate.evaluate(resolve), dtype=bool)
    return np.nonzero(mask)[0].astype(np.int64, copy=False)


class TestFusedKernelEquivalence:
    def test_fused_matches_naive_conjunction(self):
        """Property sweep: random multi-dtype columns x random predicate
        sets -> fused row positions bit-identical to the naive loop."""
        rng = np.random.default_rng(SEED)
        makers = {"a": _random_ints, "b": _random_floats, "c": _random_strings}
        for trial in range(80):
            n = int(rng.integers(1, 400))
            columns = {name: np.asarray(make(rng, n))
                       for name, make in makers.items()}
            pool = []
            for name, values in columns.items():
                pool += _predicates_for(rng, ColumnRef("t", name), values)
            count = int(rng.integers(1, 6))
            picked = rng.choice(len(pool), size=min(count, len(pool)),
                                replace=False)
            predicates = tuple(pool[int(i)] for i in picked)
            resolve = lambda ref: columns[ref.column]
            expected = _naive_positions(predicates, resolve, n)
            actual = PredicateCompiler(predicates).evaluate_range(resolve, n)
            assert np.array_equal(actual, expected), (trial, predicates)

    def test_counters_accumulate(self):
        values = np.arange(100, dtype=np.int64)
        predicates = (Comparison(ColumnRef("t", "a"), "<", 50),
                      Comparison(ColumnRef("t", "a"), ">=", 10))
        ctx = ExecContext(database=None, stats=MaterializationStats())
        positions = PredicateCompiler(predicates).evaluate_range(
            lambda ref: values, 100, ctx)
        assert np.array_equal(positions, np.arange(10, 50))
        # One full pass (100 rows) + one pass over the survivors of the
        # more selective predicate, whichever the ranking ran first.
        assert ctx.fused_rows_touched > 100

    def test_three_predicate_conjunction_touches_fewer_rows(self):
        """The fused pass evaluates fewer than ``3 x rows`` candidates on a
        3-predicate conjunction with a selective leading predicate, and
        selects exactly the naive loop's rows."""
        rng = np.random.default_rng(SEED + 7)
        rows = 50_000
        columns = {"a": rng.integers(0, 1000, rows),
                   "b": rng.integers(0, 100, rows),
                   "c": rng.normal(0.0, 1.0, rows)}
        predicates = (Comparison(ColumnRef("t", "a"), "=", 7),
                      Comparison(ColumnRef("t", "c"), ">", 0.0),
                      Comparison(ColumnRef("t", "b"), "<=", 80))
        resolve = lambda ref: columns[ref.column]
        ctx = ExecContext(database=None, stats=MaterializationStats())
        positions = PredicateCompiler(predicates).evaluate_range(
            resolve, rows, ctx)
        assert 0 < ctx.fused_rows_touched < 3 * rows
        assert np.array_equal(positions,
                              _naive_positions(predicates, resolve, rows))

    def test_selectivity_rank_orders_equality_first(self):
        ref = ColumnRef("t", "a")
        compiler = PredicateCompiler((IsNotNull(ref),
                                      Comparison(ref, "=", 3),
                                      Between(ref, 0, 10)))
        assert isinstance(compiler.predicates[0], Comparison)
        assert compiler.predicates[0].op == "="
        assert isinstance(compiler.predicates[-1], IsNotNull)
        assert selectivity_rank(Comparison(ref, "=", 3)) < selectivity_rank(
            Between(ref, 0, 10)) < selectivity_rank(IsNotNull(ref))


class TestDictionaryTranslation:
    def test_translated_filters_match_value_space(self):
        """Property sweep: code-space evaluation over the encoded column
        equals value-space evaluation over the raw strings."""
        rng = np.random.default_rng(SEED + 1)
        ref = ColumnRef("t", "c")
        for trial in range(80):
            n = int(rng.integers(1, 300))
            raw = _random_strings(rng, n)
            table = DataTable("t", {"c": raw.copy()})
            assert table.encode_strings() == ["c"]
            pool = _predicates_for(rng, ref, raw)
            count = int(rng.integers(1, 4))
            picked = rng.choice(len(pool), size=min(count, len(pool)),
                                replace=False)
            predicates = tuple(pool[int(i)] for i in picked)
            expected = _naive_positions(predicates, lambda _ref: raw, n)
            translated, impossible, _ = translate_filters(
                predicates, table, lambda r: r.column)
            if impossible:
                actual = np.empty(0, dtype=np.int64)
            else:
                codes = table.column("c")
                actual = _naive_positions(translated, lambda _ref: codes, n)
            assert np.array_equal(actual, expected), (trial, predicates)

    def test_absent_equality_is_proven_impossible(self):
        table = DataTable("t", {"c": np.array(["a", "b", None], dtype=object)})
        table.encode_strings()
        translated, impossible, count = translate_filters(
            (Comparison(ColumnRef("t", "c"), "=", "zz"),),
            table, lambda r: r.column)
        assert impossible and translated == ()
        assert count == 1

    def test_full_dictionary_match_still_excludes_nulls(self):
        """IN over every distinct value is IS NOT NULL, not a tautology."""
        raw = np.array(["a", "b", None, "a"], dtype=object)
        table = DataTable("t", {"c": raw.copy()})
        table.encode_strings()
        predicates = (InList(ColumnRef("t", "c"), ("a", "b")),)
        translated, impossible, _ = translate_filters(
            predicates, table, lambda r: r.column)
        assert not impossible and translated
        codes = table.column("c")
        actual = _naive_positions(translated, lambda _ref: codes, len(raw))
        assert np.array_equal(actual, np.array([0, 1, 3]))

    def test_string_predicates_prune_blocks_via_code_zone_maps(self):
        """A clustered encoded column prunes blocks for string equality."""
        schema = Schema([TableSchema(
            "s", [Column("id", DataType.INT), Column("grp", DataType.STRING)],
            primary_key="id")])
        n, per = 4096, 256
        grp = np.array([f"g_{i // per:02d}" for i in range(n)], dtype=object)
        db = Database(schema, index_config=IndexConfig.NONE, block_size=per)
        db.load_table(DataTable("s", {"id": np.arange(n), "grp": grp}))
        assert db.table("s").is_encoded("grp")
        node = ScanNode(relation=RelationRef.base("s", "s"),
                        filters=(Comparison(ColumnRef("s", "grp"), "=", "g_07"),))
        ctx = ExecContext(database=db, stats=MaterializationStats())
        chunk = Scan(node).execute(ctx)
        assert ctx.dict_predicates == 1
        assert ctx.scan_blocks_pruned == (n // per) - 1
        assert np.array_equal(chunk.sources[0].row_ids,
                              np.arange(7 * per, 8 * per))


class TestScanPathEquivalence:
    def test_scan_row_ids_identical_across_all_toggles(self, tiny_schema):
        """End to end through Scan: dict on and off emit the same selection
        vector, and both equal the naive per-predicate loop over the raw
        columns."""
        from tests.conftest import build_tiny_database

        filters = (Comparison(ColumnRef("ci", "id"), "<=", 1200),
                   StringPrefix(ColumnRef("ci", "note"), "(v"),
                   Comparison(ColumnRef("ci", "movie_id"), ">", 3))
        node = ScanNode(relation=RelationRef.base("ci", "ci"), filters=filters)

        def scan_ids(dict_encode):
            db = build_tiny_database(tiny_schema, dict_encode=dict_encode)
            table = db.table("ci")
            assert table.is_encoded("note") == dict_encode
            table.build_zone_maps(64)
            ctx = ExecContext(database=db, stats=MaterializationStats())
            chunk = Scan(node).execute(ctx)
            return chunk.sources[0].row_ids, ctx

        plain = build_tiny_database(tiny_schema, dict_encode=False).table("ci")
        baseline = _naive_positions(filters,
                                    lambda ref: plain.column(ref.column),
                                    plain.num_rows)
        assert baseline.size > 0
        for dict_encode in (False, True):
            row_ids, ctx = scan_ids(dict_encode)
            assert np.array_equal(row_ids, baseline), dict_encode
            assert ctx.fused_predicates == len(filters)
            assert ctx.fused_rows_touched > 0


# ----------------------------------------------------------------------
# Runtime feedback of a hash-join plan
# ----------------------------------------------------------------------
SEMI_SCHEMA = Schema([
    TableSchema("dim", [Column("id", DataType.INT),
                        Column("tag", DataType.STRING)], primary_key="id"),
    TableSchema("fact", [Column("id", DataType.INT),
                         Column("dim_id", DataType.INT),
                         Column("val", DataType.FLOAT)],
                primary_key="id",
                foreign_keys=[ForeignKey("dim_id", "dim", "id")]),
])


def _semi_database() -> Database:
    rng = np.random.default_rng(SEED + 6)
    n_dim, n_fact = 100, 6000
    db = Database(SEMI_SCHEMA, index_config=IndexConfig.NONE, block_size=512)
    db.load_table(DataTable("dim", {
        "id": np.arange(1, n_dim + 1),
        "tag": np.array([f"x_{i % 10}" for i in range(n_dim)], dtype=object),
    }))
    db.load_table(DataTable("fact", {
        "id": np.arange(1, n_fact + 1),
        "dim_id": rng.integers(1, n_dim + 1, n_fact),
        "val": rng.uniform(0, 1, n_fact),
    }))
    return db


class TestScanFeedback:
    def test_scan_actual_rows_count_only_its_own_filters(self):
        """Every executed scan reports, as its runtime feedback, the rows
        satisfying its own filters -- never a count pruned by its sibling
        in the join -- and the join result matches brute force."""
        db = _semi_database()
        query = SPJQuery(
            name="semi",
            relations=(RelationRef.base("f", "fact"),
                       RelationRef.base("d", "dim")),
            filters=(Comparison(ColumnRef("d", "tag"), "=", "x_3"),),
            join_predicates=(JoinPredicate(ColumnRef("f", "dim_id"),
                                           ColumnRef("d", "id")),),
            aggregates=(AggregateSpec("count", None, "row_count"),),
        )
        plan = Optimizer(db).plan(query)
        result = Executor(db).execute(plan)

        assert isinstance(plan.root, JoinNode)
        assert plan.root.method is JoinMethod.HASH
        scans = plan.root.children()
        assert all(isinstance(scan, ScanNode) for scan in scans)
        for scan in scans:
            table = db.table(scan.relation.table_name)
            expected = _naive_positions(
                scan.filters, lambda ref: table.column_values(ref.column),
                table.num_rows).size
            assert scan.actual_rows == expected, scan.relation.alias

        dim, fact = db.table("dim"), db.table("fact")
        wanted = set(dim.column("id")[
            np.asarray(dim.column_values("tag")) == "x_3"].tolist())
        expected = sum(int(v) in wanted for v in fact.column("dim_id"))
        assert result.table.to_rows()[0][0] == expected
        assert result.semijoin_pruned_rows == 0

    @pytest.mark.parametrize("dict_encode", [False, True],
                             ids=["dict-off", "dict-on"])
    def test_generated_stream_scans_report_own_filter_counts(self,
                                                             dict_encode):
        """The same feedback contract over generated join queries, whatever
        plan shape the optimizer picks: every executed base-table scan's
        ``actual_rows`` is the number of live rows passing its filters."""
        from tests.test_differential import (
            build_differential_database,
            make_stream,
        )

        db = build_differential_database(dict_encode=dict_encode)
        generator = make_stream(db)
        optimizer, executor = Optimizer(db), Executor(db)
        checked = 0
        for index in range(100):
            query = generator.query_at(index)
            if not query.is_spj:
                continue
            plan = optimizer.plan(query.spj)
            executor.execute(plan)
            scans, stack = [], [plan.root]
            while stack:
                node = stack.pop()
                stack.extend(node.children())
                # An INDEX_NL join probes its inner relation without
                # running the scan node, which then records no feedback.
                if isinstance(node, ScanNode) and node.actual_rows is not None:
                    scans.append(node)
            for scan in scans:
                table = db.table(scan.relation.table_name)
                expected = _naive_positions(
                    scan.filters,
                    lambda ref: table.column_values(ref.column),
                    table.num_rows).size
                assert scan.actual_rows == expected, (index, scan.relation)
                checked += 1
        assert checked >= 60


# ----------------------------------------------------------------------
# Satellite regressions
# ----------------------------------------------------------------------
class TestInListRegressions:
    REF = ColumnRef("t", "c")

    def test_unrepresentable_float_literal_does_not_corrupt_match(self):
        """3.7 against an int column must match nothing -- the previous
        dtype coercion truncated it to 3 and matched spurious rows."""
        data = np.array([1, 2, 3, 4], dtype=np.int64)
        mask = InList(self.REF, (2, 3.7)).evaluate(lambda ref: data)
        assert mask.tolist() == [False, True, False, False]

    def test_empty_value_list_matches_nothing(self):
        data = np.arange(5)
        assert not InList(self.REF, ()).evaluate(lambda ref: data).any()

    def test_mixed_type_values_against_object_column(self):
        data = np.array(["a", 7, None, "b"], dtype=object)
        mask = InList(self.REF, ("a", 7, "missing")).evaluate(lambda ref: data)
        assert mask.tolist() == [True, True, False, False]

    def test_representable_fast_path_unchanged(self):
        data = np.arange(10, dtype=np.int64)
        mask = InList(self.REF, (2, 5, 11)).evaluate(lambda ref: data)
        assert np.array_equal(np.nonzero(mask)[0], np.array([2, 5]))


class TestAnalyzeNullHandling:
    def test_object_column_with_nones_does_not_crash(self):
        """The previous float-only NaN path crashed on object columns."""
        stats = analyze_columns({
            "c": np.array(["a", None, "b", "a", None], dtype=object)})
        col = stats.columns["c"]
        assert col.null_fraction == pytest.approx(0.4)
        assert col.ndv == 2

    def test_mixed_numeric_object_column(self):
        stats = analyze_columns({
            "c": np.array([1, 2.5, None, float("nan"), 4], dtype=object)})
        assert stats.columns["c"].null_fraction == pytest.approx(0.4)

    def test_encoded_table_analyzed_over_decoded_values(self):
        table = DataTable("t", {
            "c": np.array(["hot"] * 8 + ["cold"] * 2, dtype=object)})
        table.encode_strings()
        stats = analyze_table(table)
        assert "hot" in stats.columns["c"].mcv_values
