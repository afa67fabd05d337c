"""A NULL join key matches nothing, on every path that matches keys.

SQL's ``a = b`` is not true when either side is NULL, and the engine's one
NULL rule (``storage.dictionary.null_mask``) says which values are NULL:
``NaN`` in a float column, ``None`` (or a stray ``NaN``) in an object
column.  Every expectation below is counted by hand from the literal rows.
"""

import numpy as np
import pytest

from repro.catalog.schema import Column, ForeignKey, Schema, TableSchema
from repro.catalog.types import DataType
from repro.executor.executor import Executor
from repro.executor.joins import (
    count_matches,
    equi_join_indices,
    multi_key_matches,
)
from repro.plan.expressions import ColumnRef, JoinPredicate
from repro.plan.logical import AggregateSpec, Query, RelationRef, SPJQuery
from repro.plan.physical import JoinMethod, JoinNode, PhysicalPlan, ScanNode
from repro.reopt.registry import make_algorithm
from repro.storage.database import Database, IndexConfig
from repro.storage.index import SortedIndex
from repro.storage.table import DataTable

NAN = float("nan")


def _pairs(indices) -> list[tuple[int, int]]:
    left_idx, right_idx = indices
    return list(zip(left_idx.tolist(), right_idx.tolist()))


class TestKernels:
    """The hash join and the oracle's count agree, and skip NULL keys."""

    def test_nan_float_keys(self):
        left = np.array([1.0, NAN])
        right = np.array([NAN, 1.0, NAN])
        assert _pairs(equi_join_indices(left, right)) == [(0, 1)]
        assert count_matches([left], [right]) == 1

    def test_none_in_object_keys(self):
        left = np.array(["a", None, "b", None, "c"], dtype=object)
        right = np.array([None, "b", "a", "a"], dtype=object)
        # Probe-major; the two "a" rows in their stable sort order.
        assert _pairs(equi_join_indices(left, right)) == [(0, 2), (0, 3), (2, 1)]
        assert count_matches([left], [right]) == 3

    def test_stray_nan_in_object_keys(self):
        left = np.array(["a", NAN], dtype=object)
        right = np.array([NAN, "a"], dtype=object)
        assert _pairs(equi_join_indices(left, right)) == [(0, 1)]
        assert count_matches([left], [right]) == 1

    def test_two_column_key_with_null_in_one_column(self):
        left = [np.array([1, 1, 2, 2]),
                np.array(["x", None, "y", "y"], dtype=object)]
        right = [np.array([1, 1, 2, 2, 1]),
                 np.array([None, "x", "y", None, None], dtype=object)]
        # (1, None) matches nothing on either side, not even (1, None).
        assert _pairs(multi_key_matches(left, right).pairs()) == [(0, 1), (2, 2), (3, 2)]
        assert count_matches(left, right) == 3

    def test_two_float_columns_with_nan(self):
        left = [np.array([1.0, 1.0, NAN]), np.array([0.5, NAN, 0.5])]
        right = [np.array([1.0, 1.0, NAN]), np.array([NAN, 0.5, 0.5])]
        assert _pairs(multi_key_matches(left, right).pairs()) == [(0, 1)]
        assert count_matches(left, right) == 1


class TestIndex:
    def test_object_index_leaves_out_none(self):
        index = SortedIndex("t", "c", np.array(["b", None, "a", None, "a"],
                                               dtype=object))
        probes = np.array(["a", None, "b", "z"], dtype=object)
        assert _pairs(index.lookup_batch(probes)) == [(0, 2), (0, 4), (2, 0)]
        assert index.num_keys == 3

    def test_pk_fk_index_over_nullable_float_fk(self):
        schema = Schema([
            TableSchema("p", [Column("id", DataType.INT)], primary_key="id"),
            TableSchema("c", [Column("id", DataType.INT),
                              Column("p_id", DataType.FLOAT)], primary_key="id",
                        foreign_keys=[ForeignKey("p_id", "p", "id")]),
        ])
        db = Database(schema, index_config=IndexConfig.PK_FK)
        db.load_table(DataTable("p", {"id": np.arange(1, 4)}))
        db.load_table(DataTable("c", {
            "id": np.arange(5), "p_id": np.array([1.0, NAN, 2.0, NAN, 1.0])}))
        index = db.index("c", "p_id")
        assert index is not None
        probes = np.array([1.0, NAN, 2.0, 3.0])
        assert _pairs(index.lookup_batch(probes)) == [(0, 0), (0, 4), (2, 2)]
        assert index.lookup(NAN).tolist() == []


@pytest.fixture(scope="module")
def nullable_db() -> Database:
    """Two tables whose string column ``s`` and float column ``f`` hold
    NULLs on both sides.

    ``a.s = b.s``: a0-b1, a2-b3, a3-b1, a4-b4 (4 rows).
    ``a.f = b.f``: a0-b1, a2-b3, a3-b1 (3 rows).
    Both: a0-b1, a2-b3, a3-b1 (3 rows; a4-b4 fails on ``f``).
    """
    columns = [Column("id", DataType.INT), Column("s", DataType.STRING),
               Column("f", DataType.FLOAT)]
    db = Database(Schema([TableSchema("a", columns, primary_key="id"),
                          TableSchema("b", columns, primary_key="id")]))
    db.load_table(DataTable("a", {
        "id": np.arange(5),
        "s": np.array(["x", None, "y", "x", "z"], dtype=object),
        "f": np.array([1.0, NAN, 2.0, 1.0, NAN])}))
    db.load_table(DataTable("b", {
        "id": np.arange(5),
        "s": np.array([None, "x", None, "y", "z"], dtype=object),
        "f": np.array([NAN, 1.0, NAN, 2.0, 3.0])}))
    return db


COUNTS = {("s",): 4, ("f",): 3, ("s", "f"): 3}


@pytest.mark.parametrize("algorithm", ("Default", "QuerySplit", "Optimal"))
@pytest.mark.parametrize("columns", list(COUNTS), ids="+".join)
def test_count_over_nullable_join_columns(nullable_db, algorithm, columns):
    spj = SPJQuery(
        name="nullable_" + "_".join(columns),
        relations=(RelationRef.base("a", "a"), RelationRef.base("b", "b")),
        filters=(),
        join_predicates=tuple(JoinPredicate(ColumnRef("a", c), ColumnRef("b", c))
                              for c in columns),
        aggregates=(AggregateSpec("count", None, "row_count"),))
    report = make_algorithm(algorithm, nullable_db).run(Query.from_spj(spj))
    assert report.final_table.to_rows() == [(COUNTS[columns],)]
    assert nullable_db.temp_table_names == []


def test_index_nl_residual_null_is_unequal():
    """An INDEX_NL join's second predicate compares NULL with NULL as
    unequal, exactly as the HASH join of the same two predicates does.

    o1-p1 ("a" = "a") and o4-p3 ("b" = "b") match; o2-p2 (NULL, NULL) and
    o3-p2 ("x", NULL) do not.
    """
    schema = Schema([
        TableSchema("p", [Column("id", DataType.INT), Column("s", DataType.STRING)],
                    primary_key="id"),
        TableSchema("o", [Column("id", DataType.INT), Column("p_id", DataType.INT),
                          Column("s", DataType.STRING)], primary_key="id",
                    foreign_keys=[ForeignKey("p_id", "p", "id")]),
    ])
    db = Database(schema)
    db.load_table(DataTable("p", {"id": np.array([1, 2, 3]),
                                  "s": np.array(["a", None, "b"], dtype=object)}))
    db.load_table(DataTable("o", {"id": np.array([1, 2, 3, 4]),
                                  "p_id": np.array([1, 2, 2, 3]),
                                  "s": np.array(["a", None, "x", "b"], dtype=object)}))

    def plan(method: JoinMethod) -> PhysicalPlan:
        join = JoinNode(
            left=ScanNode(relation=RelationRef.base("o", "o")),
            right=ScanNode(relation=RelationRef.base("p", "p")),
            predicates=(JoinPredicate(ColumnRef("o", "p_id"), ColumnRef("p", "id")),
                        JoinPredicate(ColumnRef("o", "s"), ColumnRef("p", "s"))),
            method=method,
            index_column=(ColumnRef("p", "id")
                          if method is JoinMethod.INDEX_NL else None))
        return PhysicalPlan(query_name=f"null_residual_{method.name}", root=join,
                            output_columns=(ColumnRef("o", "id"), ColumnRef("p", "id")))

    executor = Executor(db)
    for method in (JoinMethod.INDEX_NL, JoinMethod.HASH):
        rows = executor.execute(plan(method)).table.to_rows()
        assert sorted(rows) == [(1, 1), (4, 3)], method
