"""Index probes and equi-joins against the previous kernels.

``tests/reference_join.py`` holds ``SortedIndex.lookup_batch`` and
``equi_join_indices`` as they were before dense integer keys were located by
direct addressing.  Every case here asks for the same arrays -- values,
order and dtype -- from the dense-unique, dense-duplicate and sorted
layouts alike, whether a base table's index or a hash join's transient one
is probed.
"""

import tracemalloc

import numpy as np
import pytest

from repro.executor import joins
from repro.executor.joins import JoinOverflowError, equi_join_indices, equi_join_matches
from repro.storage.index import SortedIndex
from tests import reference_join


def _index_case(name: str) -> tuple[np.ndarray, np.ndarray, bool]:
    """(indexed values, probe keys, whether the index is dense) per shape."""
    rng = np.random.default_rng(5)
    if name == "dense-unique":
        return rng.permutation(np.arange(1, 2001)), rng.integers(-5, 2010, 900), True
    if name == "dense-duplicates":
        return rng.integers(0, 300, 1500), rng.integers(-3, 305, 700), True
    if name == "dense-with-gaps":
        values = np.arange(0, 4000, 3)  # span 3x the rows, still dense
        return rng.permutation(values), rng.integers(-10, 4010, 500), True
    if name == "sparse":
        return rng.integers(0, 10 ** 12, 400), rng.integers(0, 10 ** 12, 50), False
    if name == "sparse-probe-hits":
        values = rng.integers(-10 ** 9, 10 ** 9, 300)
        return values, np.concatenate((values[:40], values[:40], [7])), False
    if name == "negative-keys":
        return rng.integers(-500, -100, 800), rng.integers(-520, -80, 400), True
    if name == "probes-beyond-both-ends":
        probes = np.array([-(2 ** 63), -1, 0, 9, 10, 11, 2 ** 63 - 1, 5, 5])
        return np.arange(10), probes, True
    if name == "int32-probes":
        return (rng.integers(0, 100, 300), rng.integers(-5, 110, 200).astype(np.int32),
                True)
    if name == "int32-index":
        return (rng.integers(0, 100, 300).astype(np.int32), rng.integers(-5, 110, 200),
                True)
    if name == "int32-index-wide":
        # n * span is about 2.4e9: a composite order built in int32 wraps.
        return (rng.integers(0, 40000, 60000).astype(np.int32),
                rng.integers(-5, 40010, 500), True)
    if name == "dense-duplicates-heavy":
        return rng.integers(0, 100, 50000), rng.integers(-3, 103, 400), True
    if name == "dense-unique-shuffled-with-gaps":
        values = rng.choice(8000, 3000, replace=False) + 100
        return values, rng.integers(90, 8110, 600), True
    if name == "float-probes-into-dense":
        return np.arange(50), np.array([0.0, 1.5, 3.0, 49.0, 50.0, -1.0]), True
    if name == "float-probes-into-dense-duplicates":
        return (rng.integers(0, 30, 100), np.array([0.0, 1.5, 3.0, 29.0, 30.0, -1.0]),
                True)
    if name == "float-keys":
        pool = np.array([-1.5, 0.0, 0.25, 3.0, 1e9])
        return pool[rng.integers(0, 5, 60)], pool[rng.integers(0, 5, 40)], False
    if name == "string-keys":
        pool = np.array(["", "a", "ab", "b", "zz"], dtype=object)
        return pool[rng.integers(0, 5, 60)], pool[rng.integers(0, 5, 40)], False
    if name == "empty-probe":
        return np.arange(100), np.empty(0, dtype=np.int64), True
    if name == "empty-index":
        return np.empty(0, dtype=np.int64), rng.integers(0, 10, 20), False
    if name == "single-key":
        return np.array([42]), np.array([41, 42, 43, 42]), True
    if name == "single-hot-key":
        return np.full(50, 7), np.array([7, 6, 7, 8]), True
    raise ValueError(name)


INDEX_CASES = ("dense-unique", "dense-duplicates", "dense-with-gaps", "sparse",
               "sparse-probe-hits", "negative-keys", "probes-beyond-both-ends",
               "int32-probes", "int32-index", "int32-index-wide",
               "dense-duplicates-heavy", "dense-unique-shuffled-with-gaps",
               "float-probes-into-dense", "float-probes-into-dense-duplicates",
               "float-keys", "string-keys", "empty-probe", "empty-index",
               "single-key", "single-hot-key")


def _assert_same(got, expected):
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype
        assert np.array_equal(g, e)


class TestIndexAgainstReference:
    @pytest.mark.parametrize("case", INDEX_CASES)
    def test_lookup_batch_identical(self, case):
        values, probes, dense = _index_case(case)
        index = SortedIndex("t", "c", values)
        # The sorted keys are dropped exactly when the dense path replaces them.
        assert (index._sorted_values is None) == dense
        reference = reference_join.SortedIndex("t", "c", values)
        _assert_same(index.lookup_batch(probes), reference.lookup_batch(probes))

    @pytest.mark.parametrize("case", ("dense-unique", "dense-duplicates", "sparse"))
    def test_row_ids_point_at_matching_keys(self, case):
        """Every returned row id holds the probe key it was matched to."""
        values, probes, _ = _index_case(case)
        positions, row_ids = SortedIndex("t", "c", values).lookup_batch(probes)
        assert np.array_equal(values[row_ids], probes[positions])
        expected = sum(int((values == key).sum()) for key in probes)
        assert len(row_ids) == expected

    @pytest.mark.parametrize("case", ("dense-duplicates", "sparse-probe-hits"))
    def test_lookup_is_a_one_key_batch(self, case):
        values, probes, _ = _index_case(case)
        index = SortedIndex("t", "c", values)
        reference = reference_join.SortedIndex("t", "c", values)
        for key in probes[:20]:
            _assert_same((index.lookup(key),),
                         (reference.lookup_batch(np.array([key]))[1],))


def _join_case(name: str) -> tuple[np.ndarray, np.ndarray]:
    """(probe keys, build keys) per shape; the build side is the right."""
    rng = np.random.default_rng(9)
    if name == "dense-unique-build":
        return rng.integers(-3, 130, 300), rng.permutation(np.arange(120))
    if name == "dense-duplicate-build":
        return rng.integers(0, 40, 200), rng.integers(0, 40, 150)
    if name == "sparse-unique-build":
        build = rng.choice(10 ** 9, 100, replace=False)
        return np.concatenate((build[::3], rng.integers(0, 10 ** 9, 30))), build
    if name == "negative-dense-build":
        return rng.integers(-70, -20, 90), rng.permutation(np.arange(-60, -30))
    if name == "extreme-probes":
        return np.array([-(2 ** 63), 2 ** 63 - 1, 3, 0]), np.arange(5)
    if name == "int32-probe-int64-build":
        return rng.integers(0, 60, 80).astype(np.int32), rng.permutation(np.arange(50))
    if name == "float-keys":
        pool = np.array([-1.5, 0.0, 0.25, 3.0, 1e9])
        return pool[rng.integers(0, 5, 40)], pool[rng.integers(0, 5, 30)]
    if name == "float-probe-int-build":
        return np.array([0.0, 2.5, 3.0, 70.0]), np.arange(50)
    if name == "string-keys":
        pool = np.array(["", "a", "ab", "b", "zz"], dtype=object)
        return pool[rng.integers(0, 5, 40)], pool[rng.integers(0, 5, 30)]
    if name == "single-key-build":
        return np.array([4, 5, 5, 6]), np.array([5])
    if name == "int32-dense-unique-build":
        return (rng.integers(-3, 130, 300),
                rng.permutation(np.arange(120)).astype(np.int32))
    if name == "int32-dense-duplicate-wide-build":
        # span * n is about 2.4e9: a composite order built in int32 wraps.
        return (rng.integers(-5, 40010, 500),
                rng.integers(0, 40000, 60000).astype(np.int32))
    if name == "dense-duplicate-heavy-build":
        return rng.integers(-3, 103, 400), rng.integers(0, 100, 50000)
    if name == "sparse-duplicate-build":
        pool = rng.integers(0, 10 ** 12, 50)
        return (np.concatenate((pool[rng.integers(0, 50, 80)],
                                rng.integers(0, 10 ** 12, 20))),
                pool[rng.integers(0, 50, 300)])
    if name == "empty-build":
        return rng.integers(0, 10, 20), np.empty(0, dtype=np.int64)
    if name == "empty-probe":
        return np.empty(0, dtype=np.int64), rng.integers(0, 10, 20)
    raise ValueError(name)


JOIN_CASES = ("dense-unique-build", "dense-duplicate-build", "sparse-unique-build",
              "negative-dense-build", "extreme-probes", "int32-probe-int64-build",
              "float-keys", "float-probe-int-build", "string-keys",
              "single-key-build", "int32-dense-unique-build",
              "int32-dense-duplicate-wide-build", "dense-duplicate-heavy-build",
              "sparse-duplicate-build", "empty-build", "empty-probe")


class TestEquiJoinAgainstReference:
    @pytest.mark.parametrize("case", JOIN_CASES)
    def test_pairs_identical(self, case):
        left, right = _join_case(case)
        _assert_same(equi_join_indices(left, right),
                     reference_join.equi_join_indices(left, right))


class TestOverflow:
    """Every path checks the match cap before materializing the matches."""

    @pytest.fixture
    def low_cap(self, monkeypatch):
        monkeypatch.setattr(joins, "MAX_JOIN_RESULT_ROWS", 1000)

    def test_dense_duplicates_raise_before_allocating(self, low_cap):
        index = SortedIndex("t", "c", np.zeros(2000, dtype=np.int64))
        assert index._sorted_values is None
        probes = np.zeros(1000, dtype=np.int64)  # 2M matches, 16 MB per array
        tracemalloc.start()
        try:
            with pytest.raises(JoinOverflowError):
                index.lookup_batch(probes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_dense_unique_raises(self, low_cap):
        index = SortedIndex("t", "c", np.arange(5000))
        with pytest.raises(JoinOverflowError):
            index.lookup_batch(np.arange(1001))
        assert len(index.lookup_batch(np.arange(1000))[0]) == 1000

    def test_sorted_path_raises(self, low_cap):
        index = SortedIndex("t", "c", np.full(50, 0.5))
        with pytest.raises(JoinOverflowError):
            index.lookup_batch(np.full(21, 0.5))

    def test_equi_join_dense_duplicates_raise_before_allocating(self, low_cap):
        build = np.zeros(2000, dtype=np.int64)
        assert SortedIndex("t", "c", build)._starts is not None
        probes = np.zeros(1000, dtype=np.int64)  # 2M matches, 16 MB per array
        tracemalloc.start()
        try:
            with pytest.raises(JoinOverflowError):
                equi_join_indices(probes, build)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_equi_join_slot_table_raises(self, low_cap):
        with pytest.raises(JoinOverflowError):
            equi_join_indices(np.arange(1001) % 10, np.arange(10))

    @pytest.mark.parametrize("layout", ("dense-unique", "dense-duplicates",
                                        "sorted"))
    def test_matches_asked_for_nothing_check_the_cap(self, low_cap, layout):
        """The cap holds on ``total`` alone: matches no consumer expands
        raise one past the cap, and pass at it."""
        values = {"dense-unique": np.arange(2000),
                  "dense-duplicates": np.repeat(np.arange(40), 25),
                  "sorted": np.repeat(np.arange(40) * 10.0 ** 9, 25)}[layout]
        index = SortedIndex("t", "c", values)
        probes = {"dense-unique": np.arange(1000),
                  "dense-duplicates": np.arange(40),
                  "sorted": np.arange(40) * 10.0 ** 9}[layout]
        assert index.matches(probes).total == 1000
        over = np.append(probes, probes[:1])
        with pytest.raises(JoinOverflowError):
            index.matches(over)
        with pytest.raises(JoinOverflowError):
            equi_join_matches(over, values)

    def test_cross_product_checks_the_join_cap(self, low_cap):
        """A cross product is capped like every other join: one past the
        cap raises the same error before anything is expanded."""
        from repro.executor.chunk import Chunk
        from repro.executor.operators import CrossProduct
        from repro.plan.logical import RelationRef
        from repro.plan.physical import JoinNode, ScanNode

        node = JoinNode(ScanNode(relation=RelationRef.base("a", "a")),
                        ScanNode(relation=RelationRef.base("b", "b")), ())
        left, right = Chunk((), 50), Chunk((), 20)
        assert CrossProduct(node).matches(None, left, right).total == 1000
        with pytest.raises(JoinOverflowError):
            CrossProduct(node).matches(None, Chunk((), 1001), Chunk((), 1))

    @staticmethod
    def _one_key_db(tiny_schema):
        """``ci`` (1,000 rows) and ``mk`` (2,000 rows) that all share one
        movie: joining them on ``movie_id`` makes 2M pairs."""
        from repro.storage.database import Database
        from repro.storage.table import DataTable

        db = Database(tiny_schema)
        db.load_table(DataTable("t", {"id": np.arange(1, 2),
                                      "year": np.zeros(1, dtype=np.int64),
                                      "kind": np.array(["x"], dtype=object)}))
        db.load_table(DataTable("mk", {"id": np.arange(2000),
                                       "movie_id": np.ones(2000, dtype=np.int64),
                                       "keyword_id": np.ones(2000, dtype=np.int64)}))
        db.load_table(DataTable("ci", {"id": np.arange(1000),
                                       "movie_id": np.ones(1000, dtype=np.int64),
                                       "person_id": np.ones(1000, dtype=np.int64),
                                       "note": np.full(1000, "", dtype=object)}))
        return db

    @staticmethod
    def _ci_mk(method, left_filters=()):
        from repro.plan.expressions import ColumnRef, JoinPredicate
        from repro.plan.logical import RelationRef
        from repro.plan.physical import JoinMethod, JoinNode, ScanNode

        predicate = JoinPredicate(ColumnRef("ci", "movie_id"),
                                  ColumnRef("mk", "movie_id"))
        return JoinNode(
            left=ScanNode(relation=RelationRef.base("ci", "ci"),
                          filters=left_filters),
            right=ScanNode(relation=RelationRef.base("mk", "mk")),
            predicates=(predicate,), method=method,
            index_column=(predicate.right if method is JoinMethod.INDEX_NL
                          else None))

    def test_count_star_join_allocates_no_pairs(self, tiny_schema):
        """A ``count(*)`` plan over a 2M-pair dense-duplicate join expands
        neither side: its peak stays far below one 16 MB index vector."""
        from repro.executor.executor import Executor
        from repro.plan.logical import AggregateSpec
        from repro.plan.physical import JoinMethod, PhysicalPlan

        executor = Executor(self._one_key_db(tiny_schema))
        for method in (JoinMethod.INDEX_NL, JoinMethod.HASH):
            plan = PhysicalPlan(query_name="count_pairs",
                                root=self._ci_mk(method),
                                aggregates=(AggregateSpec("count", None, "n"),))
            tracemalloc.start()
            try:
                result = executor.execute(plan)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert result.table.to_rows() == [(2_000_000,)]
            assert peak < 1_000_000, method

    def test_index_nl_keeping_both_sides_peaks_at_three_vectors(self, tiny_schema):
        """Kept on both sides, the 2M matches expand the build side first:
        its temporary positions are gone before the left rows are copied,
        so at most three 8-byte vectors per match are alive at once."""
        from repro.executor.chunk import MaterializationStats, merge_chunks
        from repro.executor.operators import ExecContext, IndexNLJoin, Scan
        from repro.plan.expressions import ColumnRef, Comparison
        from repro.plan.physical import JoinMethod

        db = self._one_key_db(tiny_schema)
        # A filter that keeps every row still selects through a row-id
        # vector, so the left side's rows are copied, not passed through.
        node = self._ci_mk(JoinMethod.INDEX_NL,
                           (Comparison(ColumnRef("ci", "id"), ">=", 0),))
        ctx = ExecContext(database=db, stats=MaterializationStats())
        left = Scan(node.left).execute(ctx)
        assert left.sources[0].row_ids is not None
        tracemalloc.start()
        try:
            matches, inner = IndexNLJoin(node).matches(ctx, left)
            chunk = merge_chunks(left, inner, matches, frozenset({"ci", "mk"}),
                                 ctx.stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert chunk.num_rows == 2_000_000
        assert peak < 24 * chunk.num_rows + 1_000_000
