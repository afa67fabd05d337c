"""Scalar aggregates read the root join's match runs, never its rows.

* ``Matches.weights()`` -- per row of each join side, how many matches it
  is in -- equals ``np.bincount`` of the expanded pairs on every index
  layout, for multi-key joins with NULL keys, all-miss and empty probes,
  and for an index nested-loop join that filters its inner rows;
* :func:`weighted_aggregate` over the weights equals :func:`group_aggregate`
  over the merged rows value for value and element type for element type:
  encoded MIN/MAX with NULL codes, integer sums that wrap, zero matches;
  float MIN/MAX with NaN agree too, but for the sign of a zero, which is
  why floats keep the merged rows;
* the executor takes that path exactly where :meth:`Aggregate.reads_matches`
  says so, answers as the merged chunk would, and allocates O(input rows)
  for a join of millions of matches.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, ForeignKey, Schema, TableSchema
from repro.catalog.types import DataType
from repro.executor.aggregates import (
    group_aggregate,
    weighted_aggregate,
    weighted_exact,
)
from repro.executor.chunk import Chunk, MaterializationStats, TableSource
from repro.executor.executor import Executor
from repro.executor.joins import equi_join_matches, multi_key_matches
from repro.executor.operators import Aggregate, ExecContext, IndexNLJoin
from repro.plan.expressions import ColumnRef, Comparison, JoinPredicate
from repro.plan.logical import AggregateSpec, RelationRef
from repro.plan.physical import JoinMethod, JoinNode, PhysicalPlan, ScanNode
from repro.storage.database import Database
from repro.storage.index import SortedIndex
from repro.storage.table import DataTable
from tests.test_properties import _MATCH_KEYS, _key_array


def _assert_weights(matches, n_left, n_right):
    """Both sides' weights are the bincounts of the expanded pairs."""
    probe, build = matches.weights(n_left, n_right)
    positions, rows = matches.pairs()
    assert probe.dtype == build.dtype == np.int64
    assert np.array_equal(probe, np.bincount(positions, minlength=n_left))
    assert np.array_equal(build, np.bincount(rows, minlength=n_right))
    assert probe.sum() == build.sum() == matches.total


@given(data=st.data(), layout=st.sampled_from(sorted(_MATCH_KEYS)))
@settings(max_examples=150, deadline=None)
def test_index_weights_are_pair_counts(data, layout):
    """One key column on every layout, NULLs included; each weight is
    computed on matches no side of which was expanded."""
    keys = _MATCH_KEYS[layout]
    values = data.draw(st.lists(keys, max_size=60,
                                unique=layout == "dense-unique"))
    probes = data.draw(st.lists(keys, max_size=40))
    values, probes = _key_array(values, layout), _key_array(probes, layout)
    index = SortedIndex("t", "c", values)
    for make in (lambda: index.matches(probes),
                 lambda: equi_join_matches(probes, values)):
        matches = make()
        probe_w, build_w = matches.weights(len(probes), len(values))
        assert matches.total == 0 or (callable(matches._probe_positions)
                                      and callable(matches._row_ids))
        positions, rows = make().pairs()
        assert probe_w.dtype == build_w.dtype == np.int64
        assert np.array_equal(probe_w, np.bincount(positions,
                                                   minlength=len(probes)))
        assert np.array_equal(build_w, np.bincount(rows, minlength=len(values)))


@pytest.mark.parametrize("layout", ("dense-unique", "dense-duplicate", "sorted"))
def test_each_layout_is_exercised(layout):
    """The three layouts the weights read runs from."""
    values = {"dense-unique": np.arange(10),
              "dense-duplicate": np.repeat(np.arange(5), 3),
              "sorted": np.array([10 ** 12, 7, 7, -10 ** 12])}[layout]
    index = SortedIndex("t", "c", values)
    attribute = {"dense-unique": "_slots", "dense-duplicate": "_starts",
                 "sorted": "_sorted_values"}[layout]
    assert getattr(index, attribute) is not None
    probes = np.array([7, 0, 3, 3, 99, -10 ** 12, 10 ** 12])
    _assert_weights(index.matches(probes), len(probes), len(values))
    _assert_weights(index.matches(probes[4:5]), 1, len(values))  # all miss
    _assert_weights(index.matches(probes[:0]), 0, len(values))   # empty


@given(data=st.data(), layout=st.sampled_from(sorted(_MATCH_KEYS)))
@settings(max_examples=100, deadline=None)
def test_multi_key_weights_are_pair_counts(data, layout):
    """Two key columns, NULL rows dropped on both sides and weights
    scattered back to the rows they came from."""
    keys = st.tuples(_MATCH_KEYS[layout], _MATCH_KEYS["object-floats"])
    left = data.draw(st.lists(keys, max_size=40))
    right = data.draw(st.lists(keys, max_size=40))

    def columns(rows):
        return [_key_array([row[0] for row in rows], layout),
                _key_array([row[1] for row in rows], "object-floats")]

    _assert_weights(multi_key_matches(columns(left), columns(right)),
                    len(left), len(right))


def _one_table_db(inner: dict[str, np.ndarray]) -> Database:
    """A database whose table ``r`` (indexed on ``k``) holds ``inner``; an
    ``l`` table of one row satisfies the schema."""
    schema = Schema([
        TableSchema("l", [Column("id", DataType.INT), Column("k", DataType.INT)],
                    primary_key="id"),
        TableSchema("r", [Column("id", DataType.INT), Column("k", DataType.INT),
                          Column("v", DataType.INT)],
                    primary_key="id",
                    foreign_keys=[ForeignKey("k", "l", "id")]),
    ])
    db = Database(schema)
    db.load_table(DataTable("l", {"id": np.arange(1), "k": np.zeros(1, np.int64)}))
    db.load_table(DataTable("r", {"id": np.arange(len(inner["k"])), **inner}))
    return db


@given(data=st.data(), bound=st.sampled_from((3, 40, 10 ** 12)))
@settings(max_examples=80, deadline=None)
def test_filtered_index_nl_weights_are_pair_counts(data, bound):
    """An index nested-loop join that filters its inner rows keeps the
    pairs whose inner row passes, and its weights count exactly those."""
    ints = st.integers(-bound, bound)
    inner = data.draw(st.lists(ints, min_size=1, max_size=50))
    probes = data.draw(st.lists(ints, max_size=40))
    threshold = data.draw(st.integers(-2, 12))
    db = _one_table_db({"k": np.array(inner, dtype=np.int64),
                        "v": np.arange(len(inner)) % 11})
    node = JoinNode(
        left=ScanNode(relation=RelationRef.base("l", "l")),
        right=ScanNode(relation=RelationRef.base("r", "r"),
                       filters=(Comparison(ColumnRef("r", "v"), "<=", threshold),)),
        predicates=(JoinPredicate(ColumnRef("l", "k"), ColumnRef("r", "k")),),
        method=JoinMethod.INDEX_NL, index_column=ColumnRef("r", "k"))
    ctx = ExecContext(database=db, stats=MaterializationStats())
    probe_table = DataTable("p", {"l.k": np.array(probes, dtype=np.int64)})
    left = Chunk((TableSource(RelationRef.temp("p", frozenset({"l"})),
                              probe_table),), len(probes))
    matches, inner_chunk = IndexNLJoin(node).matches(ctx, left)
    _assert_weights(matches, len(probes), inner_chunk.num_rows)
    expected = {(i, j) for i, p in enumerate(probes) for j, v in enumerate(inner)
                if p == v and j % 11 <= threshold}
    matches, _ = IndexNLJoin(node).matches(ctx, left)
    assert set(zip(*(side.tolist() for side in matches.pairs()))) == expected


# ----------------------------------------------------------------------
# The weighted kernel against group_aggregate over the merged rows
# ----------------------------------------------------------------------
#: Per column kind, its values: integers with extremes whose sums wrap,
#: floats with NaN, and dictionary codes with the NULL code -1.
_COLUMNS = {
    "int64": (np.int64, st.one_of(st.integers(-9, 9),
                                  st.integers(-2 ** 63, 2 ** 63 - 1))),
    "int32": (np.int32, st.one_of(st.integers(-9, 9),
                                  st.integers(-2 ** 31, 2 ** 31 - 1))),
    "float": (np.float64, st.one_of(
        st.sampled_from((0.5, -1.5, 2.0, 1e300, float("nan"))),
        st.floats(-1e6, 1e6, allow_nan=False))),
    "codes": (np.int32, st.integers(-1, 3)),
}
_DICTIONARY = np.array(["apple", "kiwi", "pear", "plum"], dtype=object)


def _elements_equal(got, expected) -> bool:
    """Same element type and value; NaN equals NaN, and ``0.0`` equals
    ``-0.0`` (:func:`test_float_extremes_may_flip_the_sign_of_zero`)."""
    if type(got) is not type(expected):
        return False
    if isinstance(got, (float, np.floating)) and np.isnan(got):
        return bool(np.isnan(expected))
    return got == expected


def _assert_tables_equal(got: DataTable, expected: DataTable) -> None:
    assert got.name == expected.name
    assert got.column_names == expected.column_names
    assert got.dictionaries == expected.dictionaries == {}
    for name in expected.column_names:
        assert got.column(name).dtype == expected.column(name).dtype == object
        [g], [e] = got.column(name), expected.column(name)
        assert _elements_equal(g, e), (name, g, e)


@given(data=st.data(), left_kind=st.sampled_from(sorted(_COLUMNS)),
       right_kind=st.sampled_from(sorted(_COLUMNS)))
@settings(max_examples=300, deadline=None)
def test_weighted_aggregate_is_group_aggregate(data, left_kind, right_kind):
    """Every exact function over one column of each join side."""
    keys = st.integers(0, 6)
    left_keys = np.array(data.draw(st.lists(keys, max_size=30)), dtype=np.int64)
    right_keys = np.array(data.draw(st.lists(keys, max_size=30)), dtype=np.int64)
    columns = {}
    for alias, kind, n in (("a", left_kind, len(left_keys)),
                           ("b", right_kind, len(right_keys))):
        dtype, elements = _COLUMNS[kind]
        values = np.array(data.draw(st.lists(elements, min_size=n, max_size=n)),
                          dtype=dtype)
        columns[alias] = (values, _DICTIONARY if kind == "codes" else None)
    matches = equi_join_matches(left_keys, right_keys)
    probe_w, build_w = matches.weights(len(left_keys), len(right_keys))
    positions, rows = matches.pairs()
    specs, merged, dictionaries, inputs = [AggregateSpec("count", None, "n")], {}, {}, {}
    for alias, weights, at in (("a", probe_w, positions), ("b", build_w, rows)):
        values, dictionary = columns[alias]
        ref = ColumnRef(alias, "x")
        merged[ref.qualified] = values[at]
        inputs[ref.qualified] = (values, weights, dictionary)
        if dictionary is not None:
            dictionaries[ref.qualified] = dictionary
        for func in ("min", "max", "sum", "avg"):
            if (weighted_exact(func, values.dtype, dictionary is not None)
                    or func in ("min", "max")):
                specs.append(AggregateSpec(func, ref, f"{func}_{alias}"))
    merged_table = DataTable("merged", merged, dictionaries=dictionaries,
                             num_rows=matches.total)
    _assert_tables_equal(weighted_aggregate(matches.total, inputs, tuple(specs)),
                         group_aggregate(merged_table, (), tuple(specs)))


def test_float_extremes_may_flip_the_sign_of_zero():
    """Why float MIN/MAX keep the merged rows: the expanded join meets the
    build rows in probe order, one side's rows come in row order, and MIN
    over equal zeros keeps the last one it meets."""
    build_values = np.array([0.0, -0.0])
    matches = equi_join_matches(np.array([1, 0]), np.array([0, 1]))
    spec = (AggregateSpec("min", ColumnRef("b", "x"), "lo"),)
    merged = DataTable("m", {"b.x": build_values[matches.row_ids()]})
    expected = group_aggregate(merged, (), spec).column("lo")[0]
    got = weighted_aggregate(
        matches.total, {"b.x": (build_values, matches.build_weights(2), None)},
        spec).column("lo")[0]
    assert got == expected == 0.0
    assert np.signbit(got) != np.signbit(expected)
    assert not weighted_exact("min", build_values.dtype, False)


def test_int64_sum_wraps_as_the_kernel_does():
    """Two rows near 2**62 matched three times each overflow int64; the
    weighted sum wraps to the same residue."""
    values = np.array([2 ** 62, 2 ** 62 - 1], dtype=np.int64)
    weights = np.array([3, 3])
    spec = (AggregateSpec("sum", ColumnRef("a", "x"), "s"),)
    got = weighted_aggregate(6, {"a.x": (values, weights, None)}, spec)
    merged = DataTable("m", {"a.x": np.repeat(values, weights)})
    expected = group_aggregate(merged, (), spec)
    assert got.column("s")[0] == expected.column("s")[0]
    assert type(got.column("s")[0]) is np.int64


def test_zero_matches():
    specs = (AggregateSpec("count", None, "n"),
             AggregateSpec("min", ColumnRef("a", "x"), "lo"),
             AggregateSpec("sum", ColumnRef("a", "x"), "s"))
    values = np.array([1, 2], dtype=np.int64)
    got = weighted_aggregate(0, {"a.x": (values, np.zeros(2, np.int64), None)},
                             specs)
    expected = group_aggregate(DataTable("m", {"a.x": values[:0]}), (), specs)
    _assert_tables_equal(got, expected)
    assert got.to_rows() == [(0, None, None)]


@pytest.mark.parametrize("func,dtype,encoded,exact", [
    ("count", np.dtype(object), False, True),
    ("min", np.dtype(np.float64), False, False),  # the sign of a zero
    ("max", np.dtype(np.int32), True, True),
    ("min", np.dtype(object), False, False),   # unencoded strings
    ("sum", np.dtype(np.int32), False, True),
    ("avg", np.dtype(np.int64), False, True),
    ("sum", np.dtype(np.float64), False, False),  # order of additions
    ("avg", np.dtype(np.float64), False, False),
    ("sum", np.dtype(np.int32), True, False),
])
def test_weighted_exact(func, dtype, encoded, exact):
    assert weighted_exact(func, dtype, encoded) is exact


# ----------------------------------------------------------------------
# The executor's root
# ----------------------------------------------------------------------
def _schema() -> Schema:
    return Schema([
        TableSchema("u", [Column("id", DataType.INT)], primary_key="id"),
        TableSchema("l", [Column("id", DataType.INT), Column("k", DataType.INT),
                          Column("k2", DataType.FLOAT), Column("v", DataType.INT),
                          Column("f", DataType.FLOAT), Column("s", DataType.STRING),
                          Column("o", DataType.STRING)],
                    primary_key="id",
                    foreign_keys=[ForeignKey("k", "u", "id"),
                                  ForeignKey("o", "u", "id")]),
        TableSchema("r", [Column("id", DataType.INT), Column("k", DataType.INT),
                          Column("k2", DataType.FLOAT), Column("v", DataType.INT),
                          Column("f", DataType.FLOAT), Column("s", DataType.STRING)],
                    primary_key="id",
                    foreign_keys=[ForeignKey("k", "u", "id")]),
    ])


_STRINGS = st.sampled_from(("ant", "bee", "cat", None))
_FLOATS = st.sampled_from((0.25, -3.0, 8.5, float("nan")))
_INTS = st.one_of(st.integers(-5, 5), st.integers(-2 ** 62, 2 ** 62))


@st.composite
def _tables(draw):
    """``l`` and ``r`` rows whose ``k`` draw from one small range (dense
    indexes) or from far-apart values (a sorted index)."""
    keys = draw(st.sampled_from((st.integers(0, 6),
                                 st.sampled_from((-10 ** 12, 3, 10 ** 12)))))
    tables = {}
    for name in ("l", "r"):
        n = draw(st.integers(1, 25))
        tables[name] = {
            "id": np.arange(n),
            "k": np.array(draw(st.lists(keys, min_size=n, max_size=n))),
            "k2": np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n))),
            "v": np.array(draw(st.lists(_INTS, min_size=n, max_size=n))),
            "f": np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n))),
            "s": np.array(draw(st.lists(_STRINGS, min_size=n, max_size=n)),
                          dtype=object),
        }
    tables["l"]["o"] = np.array([("x", "y")[i % 2] for i in range(
        len(tables["l"]["id"]))], dtype=object)
    return tables


def _database(tables) -> Database:
    db = Database(_schema())
    db.load_table(DataTable("u", {"id": np.arange(3)}))
    for name, columns in tables.items():
        db.load_table(DataTable(name, dict(columns)))
    return db


def _scan(alias, filters=()):
    return ScanNode(relation=RelationRef.base(alias, alias), filters=filters)


def _pred(left, right):
    return JoinPredicate(ColumnRef(*left.split(".")), ColumnRef(*right.split(".")))


#: Root shapes: hash joins on one and on two keys (a NULL-able float),
#: index nested-loop joins with and without an inner filter or a further
#: ``=`` predicate, and a join whose probe side is itself a join.
ROOTS = {
    "hash": lambda: JoinNode(_scan("l"), _scan("r"), (_pred("l.k", "r.k"),)),
    "hash-two-keys": lambda: JoinNode(
        _scan("l"), _scan("r"), (_pred("l.k", "r.k"), _pred("l.k2", "r.k2"))),
    "index-nl": lambda: JoinNode(
        _scan("l"), _scan("r"), (_pred("l.k", "r.k"),),
        method=JoinMethod.INDEX_NL, index_column=ColumnRef("r", "k")),
    "index-nl-filter": lambda: JoinNode(
        _scan("l"), _scan("r", (Comparison(ColumnRef("r", "v"), "<=", 2),)),
        (_pred("l.k", "r.k"),),
        method=JoinMethod.INDEX_NL, index_column=ColumnRef("r", "k")),
    "index-nl-residual": lambda: JoinNode(
        _scan("l"), _scan("r"), (_pred("l.k", "r.k"), _pred("l.v", "r.v")),
        method=JoinMethod.INDEX_NL, index_column=ColumnRef("r", "k")),
    "nested": lambda: JoinNode(
        JoinNode(_scan("l", (Comparison(ColumnRef("l", "v"), ">=", -3),)),
                 _scan("u"), (_pred("l.k", "u.id"),)),
        _scan("r"), (_pred("l.k", "r.k"),)),
}

#: Every function over columns of both sides: integers and encoded
#: strings with NULLs.
EXACT = (AggregateSpec("count", None, "n"),
         AggregateSpec("sum", ColumnRef("l", "v"), "sum_lv"),
         AggregateSpec("avg", ColumnRef("r", "v"), "avg_rv"),
         AggregateSpec("min", ColumnRef("r", "v"), "min_rv"),
         AggregateSpec("max", ColumnRef("l", "v"), "max_lv"),
         AggregateSpec("min", ColumnRef("l", "s"), "min_ls"),
         AggregateSpec("max", ColumnRef("r", "s"), "max_rs"))


def _merged_answer(db, root, aggregates):
    """``aggregates`` over the merged chunk: the root's rows output as a
    table, then the kernel."""
    refs = Aggregate("q", (), aggregates).refs
    table = Executor(db).execute(PhysicalPlan("q", root, output_columns=refs)).table
    return group_aggregate(table, (), aggregates)


@given(tables=_tables(), shape=st.sampled_from(sorted(ROOTS)))
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_root_reads_matches_and_answers_as_the_merged_chunk(tables, shape):
    db = _database(tables)
    root = ROOTS[shape]()
    plan = PhysicalPlan("q", root, aggregates=EXACT)
    assert Aggregate("q", (), EXACT).reads_matches(root, db)
    cache: dict = {}
    result = Executor(db).execute(plan, cache=cache)
    assert id(root) not in cache  # no root chunk was built
    expected = _merged_answer(db, ROOTS[shape](), EXACT)
    _assert_tables_equal(result.table, expected)
    assert result.join_rows == root.actual_rows == expected.column("n")[0]


#: Plans that keep the merged chunk: why each answer could move.
FALLBACKS = {
    "float-sum": (ROOTS["hash"], (AggregateSpec("sum", ColumnRef("r", "f"), "s"),)),
    "float-avg": (ROOTS["index-nl"], (AggregateSpec("avg", ColumnRef("l", "f"), "a"),)),
    "float-min": (ROOTS["hash"], (AggregateSpec("min", ColumnRef("r", "f"), "m"),)),
    "float-max": (ROOTS["index-nl"], (AggregateSpec("max", ColumnRef("l", "f"), "m"),)),
    "unencoded-strings": (ROOTS["hash"], (AggregateSpec("min", ColumnRef("l", "o"), "m"),)),
    "cross-product": (lambda: JoinNode(_scan("l"), _scan("r"), ()),
                      (AggregateSpec("count", None, "n"),)),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_fallbacks_keep_the_merged_chunk(case):
    tables = {name: {"id": np.arange(4), "k": np.array([0, 1, 1, 2]),
                     "k2": np.zeros(4), "v": np.array([1, 2, 3, 4]),
                     "f": np.array([0.1, 0.2, 0.3, float("nan")]),
                     "s": np.array(["a", None, "b", "c"], dtype=object)}
              for name in ("l", "r")}
    tables["l"]["o"] = np.array(["x", "y", "x", "z"], dtype=object)
    db = _database(tables)
    make_root, aggregates = FALLBACKS[case]
    root = make_root()
    assert not Aggregate("q", (), aggregates).reads_matches(root, db)
    cache: dict = {}
    result = Executor(db).execute(PhysicalPlan("q", root, aggregates=aggregates),
                                  cache=cache)
    assert id(root) in cache
    _assert_tables_equal(result.table, _merged_answer(db, make_root(), aggregates))


def test_group_by_keeps_the_merged_chunk():
    root = ROOTS["hash"]()
    aggregate = Aggregate("q", (ColumnRef("l", "k"),),
                          (AggregateSpec("count", None, "n"),))
    assert not aggregate.reads_matches(root, None)


def test_timing_labels_of_a_matches_root():
    """The root join's inclusive seconds stay under its label and the
    aggregation's under ``Aggregate``, which the tracer reads."""
    tables = {name: {"id": np.arange(3), "k": np.array([0, 1, 1]),
                     "k2": np.zeros(3), "v": np.array([1, 2, 3]),
                     "f": np.zeros(3), "s": np.array(["a", "b", "c"], dtype=object)}
              for name in ("l", "r")}
    tables["l"]["o"] = np.array(["x", "y", "x"], dtype=object)
    root = ROOTS["hash"]()
    result = Executor(_database(tables)).execute(
        PhysicalPlan("q", root, aggregates=EXACT))
    assert result.operator_times["HashJoin[l+r]"] == root.actual_time > 0
    assert "Aggregate" in result.operator_times
    assert root.actual_rows == result.join_rows == 5


def test_fan_out_join_allocates_input_rows_not_matches():
    """2,000 x 2,000 rows on one key are 4M matches -- 32 MB per expanded
    vector.  ``count(*)`` and integer sums over both sides read the runs:
    the peak stays O(input rows), under both join methods."""
    n = 2_000
    rng = np.random.default_rng(0)
    columns = {name: {"id": np.arange(n), "k": np.ones(n, dtype=np.int64),
                      "k2": np.zeros(n), "v": rng.integers(-50, 50, n),
                      "f": np.zeros(n),
                      "s": np.full(n, "a", dtype=object)}
               for name in ("l", "r")}
    columns["l"]["o"] = np.full(n, "x", dtype=object)
    db = _database(columns)
    aggregates = (AggregateSpec("count", None, "n"),
                  AggregateSpec("sum", ColumnRef("l", "v"), "sum_lv"),
                  AggregateSpec("sum", ColumnRef("r", "v"), "sum_rv"))
    expected = (n * n, n * int(columns["l"]["v"].sum()),
                n * int(columns["r"]["v"].sum()))
    for shape in ("hash", "index-nl"):
        executor = Executor(db)
        plan = PhysicalPlan("q", ROOTS[shape](), aggregates=aggregates)
        tracemalloc.start()
        try:
            result = executor.execute(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.table.to_rows() == [expected]
        assert peak < 1_000_000, shape
