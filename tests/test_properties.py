"""Property-based tests (hypothesis) on the core invariants.

* equi-join primitives and the oracle's count agree with a brute-force
  reference on one to three key columns with NULL keys, and index probes
  with the previous kernel (``tests/reference_join.py``) on dense and
  sparse key spans;
* a match object's lazily expanded sides are the pairs ``lookup_batch`` and
  the equi-joins return, on every index layout and with NULL keys, and
  asking for one side never expands the other;
* every QSA strategy produces a covering subquery set for randomly generated
  join queries over the tiny schema (Definition 1);
* QuerySplit produces the same result as direct plan execution for randomly
  generated SPJ queries (Theorem 1);
* histogram selectivities are valid probabilities and monotone, and
  histogram bounds read off ``np.unique``'s counts are ``np.quantile``'s
  floats, byte for byte;
* the plan-similarity score is symmetric and bounded by the relation count.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog.statistics import Histogram
from repro.core.qsa import QSAStrategy, generate_subqueries
from repro.core.splitter import QuerySplitConfig, QuerySplitExecutor
from repro.core.ssa import CostFunction
from repro.core.subquery import covers
from repro.executor.executor import Executor
from repro.executor.joins import (
    count_matches,
    equi_join_indices,
    equi_join_matches,
    multi_key_matches,
)
from repro.optimizer.optimizer import Optimizer
from repro.plan.expressions import ColumnRef, Comparison, JoinPredicate
from repro.plan.logical import AggregateSpec, Query, RelationRef, SPJQuery
from repro.plan.similarity import plan_similarity
from repro.storage.index import SortedIndex
from tests import reference_join
from tests.conftest import build_tiny_database

# ----------------------------------------------------------------------
# Join primitives
# ----------------------------------------------------------------------
#: Key bounds: the small ones give dense indexes, the large one sparse.
key_bounds = st.sampled_from((3, 40, 10 ** 12))


@given(data=st.data(), bound=key_bounds)
@settings(max_examples=80, deadline=None)
def test_index_lookup_matches_reference(data, bound):
    ints = st.integers(min_value=-bound, max_value=bound)
    values = np.array(data.draw(st.lists(ints, max_size=80)), dtype=np.int64)
    probes = np.array(data.draw(st.lists(ints, max_size=60)), dtype=np.int64)
    got = SortedIndex("t", "c", values).lookup_batch(probes)
    expected = reference_join.SortedIndex("t", "c", values).lookup_batch(probes)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and np.array_equal(g, e)


#: Per index layout, the key values both sides draw from: small integer
#: ranges give the dense layouts, far-apart integers the sorted one, and
#: object columns hold NULLs (``None``, and ``NaN`` among floats).
_MATCH_KEYS = {
    "dense-unique": st.integers(-5, 60),
    "dense-duplicate": st.integers(-3, 12),
    "sorted": st.sampled_from((-10 ** 12, 7, 3 * 10 ** 11, 10 ** 12)),
    "object-strings": st.sampled_from(("a", "b", "zz", None)),
    "object-floats": st.sampled_from((0.5, -1.0, 2.0, None, float("nan"))),
}


def _key_array(values: list, layout: str) -> np.ndarray:
    return np.array(values, dtype=object if layout.startswith("object")
                    else np.int64)


def _is_null(value) -> bool:
    return value is None or value != value


@given(data=st.data(), layouts=st.lists(st.sampled_from(sorted(_MATCH_KEYS)),
                                        min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_equi_join_matches_bruteforce(data, layouts):
    """One to three key columns of any layout, NULL keys included: the
    count, the matches' total and (on one key) the pairs are the nested
    loop's."""
    keys = st.tuples(*(_MATCH_KEYS[layout] for layout in layouts))
    left = data.draw(st.lists(keys, max_size=60))
    right = data.draw(st.lists(keys, max_size=60))
    expected = {(i, j) for i, lk in enumerate(left) for j, rk in enumerate(right)
                if not any(map(_is_null, lk + rk)) and lk == rk}

    def columns(rows):
        return [_key_array([row[c] for row in rows], layout)
                for c, layout in enumerate(layouts)]

    left_keys, right_keys = columns(left), columns(right)
    if len(layouts) == 1:
        li, ri = equi_join_indices(left_keys[0], right_keys[0])
        assert set(zip(li.tolist(), ri.tolist())) == expected
    assert (count_matches(left_keys, right_keys)
            == multi_key_matches(left_keys, right_keys).total == len(expected))


def _check_matches(make, expected_pairs):
    """``make()`` builds fresh :class:`Matches`: both sides are those pairs,
    byte for byte, and asking for one side never computes the other."""
    probe, rows = make().pairs()
    assert probe.dtype == rows.dtype == np.int64
    assert set(zip(probe.tolist(), rows.tolist())) == expected_pairs
    assert len(probe) == len(expected_pairs)
    for side, expected in enumerate((probe, rows)):
        matches = make()
        assert matches.total == len(expected)
        got = (matches.probe_positions, matches.row_ids)[side]()
        assert got.dtype == np.int64 and got.tobytes() == expected.tobytes()
        other = (matches._row_ids, matches._probe_positions)[side]
        assert matches.total == 0 or callable(other)


@given(data=st.data(), layout=st.sampled_from(sorted(_MATCH_KEYS)))
@settings(max_examples=150, deadline=None)
def test_index_matches_are_lookup_batch_pairs(data, layout):
    """Single key: an index's matches, and a hash join's, against
    ``lookup_batch`` / ``equi_join_indices`` and the nested loop."""
    keys = _MATCH_KEYS[layout]
    values = data.draw(st.lists(keys, max_size=60,
                                unique=layout == "dense-unique"))
    probes = data.draw(st.lists(keys, max_size=40))
    expected = {(i, j) for i, p in enumerate(probes) for j, v in enumerate(values)
                if not _is_null(p) and not _is_null(v) and p == v}
    values, probes = _key_array(values, layout), _key_array(probes, layout)
    index = SortedIndex("t", "c", values)
    if layout == "dense-unique" and len(values):
        assert index._slots is not None
    lookup = index.lookup_batch(probes)
    _check_matches(lambda: index.matches(probes), expected)
    for got, pinned in zip(index.matches(probes).pairs(), lookup):
        assert got.tobytes() == pinned.tobytes()
    _check_matches(lambda: equi_join_matches(probes, values), expected)


@given(data=st.data(), layout=st.sampled_from(sorted(_MATCH_KEYS)))
@settings(max_examples=100, deadline=None)
def test_multi_key_matches_are_nested_loop_pairs(data, layout):
    """Two key columns, NULLs dropped from both sides before encoding and
    mapped back lazily."""
    keys = st.tuples(_MATCH_KEYS[layout], _MATCH_KEYS["object-strings"])
    left = data.draw(st.lists(keys, max_size=40))
    right = data.draw(st.lists(keys, max_size=40))
    expected = {(i, j) for i, lk in enumerate(left) for j, rk in enumerate(right)
                if not any(map(_is_null, lk + rk)) and lk == rk}

    def columns(rows):
        return [_key_array([row[0] for row in rows], layout),
                _key_array([row[1] for row in rows], "object-strings")]

    left_keys, right_keys = columns(left), columns(right)
    _check_matches(lambda: multi_key_matches(left_keys, right_keys), expected)


@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                 allow_nan=False), min_size=2, max_size=300),
       probe=st.floats(min_value=-2e6, max_value=2e6, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_histogram_selectivity_is_probability(values, probe):
    hist = Histogram.from_values(np.array(values))
    if hist is None:
        return
    sel = hist.selectivity_le(probe)
    assert 0.0 <= sel <= 1.0
    assert hist.selectivity_range(None, None) == 1.0


#: Per dtype, values with many duplicates, negatives, extremes (int64s
#: that round on the way to float) and both zeros.
_SAMPLE_VALUES = {
    np.int64: st.one_of(st.integers(-40, 40), st.integers(-2 ** 62, 2 ** 62)),
    np.int32: st.one_of(st.integers(-40, 40), st.integers(-2 ** 31, 2 ** 31 - 1)),
    np.float64: st.one_of(
        st.sampled_from((0.0, -0.0, 1.5, -1.5, 2.0, -7.25, 1e-300, 0.1)),
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)),
}


@st.composite
def quantile_samples(draw):
    """A sample of 1-3 or up to 200 values, as int64, int32 or float64."""
    dtype = draw(st.sampled_from(tuple(_SAMPLE_VALUES)))
    elements = _SAMPLE_VALUES[dtype]
    size = draw(st.one_of(st.integers(1, 3), st.integers(4, 200)))
    return np.array(draw(st.lists(elements, min_size=size, max_size=size)),
                    dtype=dtype)


@given(values=quantile_samples(), buckets=st.sampled_from((4, 16, 32)))
@settings(max_examples=300, deadline=None)
def test_histogram_from_counts_matches_quantile(values, buckets):
    """``from_counts`` returns ``np.quantile``'s bounds under this numpy.

    The one exception is the sign of a zero bound in a sample that holds
    both ``0.0`` and ``-0.0``: ``np.unique`` keeps one of the two equal
    zeros, ``np.quantile`` reads whichever its partition put in place.
    """
    hist = Histogram.from_counts(*np.unique(values, return_counts=True),
                                 num_buckets=buckets)
    expected = np.quantile(values.astype(float),
                           np.linspace(0.0, 1.0, buckets + 1), method="linear")
    assert (hist is None) == (expected[0] == expected[-1])
    if hist is None:
        return
    zero = values == 0
    if np.signbit(values[zero]).any() and not np.signbit(values[zero]).all():
        assert np.array_equal(hist.bounds, expected)
        nonzero = expected != 0
        assert hist.bounds[nonzero].tobytes() == expected[nonzero].tobytes()
    else:
        assert hist.bounds.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# Random query generation over the tiny schema
# ----------------------------------------------------------------------
_JOINS = {
    ("mk", "t"): ("movie_id", "id"),
    ("mk", "k"): ("keyword_id", "id"),
    ("ci", "t"): ("movie_id", "id"),
    ("ci", "n"): ("person_id", "id"),
    ("ci", "mk"): ("movie_id", "movie_id"),
}
_FILTERS = {
    "t": Comparison(ColumnRef("t", "year"), ">", 2005),
    "k": Comparison(ColumnRef("k", "kw"), "<", "kw_020"),
    "n": Comparison(ColumnRef("n", "gender"), "=", "m"),
    "ci": Comparison(ColumnRef("ci", "note"), "=", "(voice)"),
    "mk": Comparison(ColumnRef("mk", "keyword_id"), "<=", 20),
}


@st.composite
def random_spj(draw):
    """A random connected SPJ query over the tiny schema."""
    edges = draw(st.lists(st.sampled_from(sorted(_JOINS)), min_size=1, max_size=5,
                          unique=True))
    aliases = sorted({a for pair in edges for a in pair})
    # Keep only edges forming a connected graph rooted at the first alias.
    connected = {aliases[0]}
    kept = []
    changed = True
    while changed:
        changed = False
        for pair in edges:
            if pair in kept:
                continue
            if pair[0] in connected or pair[1] in connected:
                kept.append(pair)
                connected.update(pair)
                changed = True
    aliases = sorted(connected)
    filters = tuple(_FILTERS[a] for a in aliases if draw(st.booleans()))
    joins = tuple(
        JoinPredicate(ColumnRef(left, _JOINS[(left, right)][0]),
                      ColumnRef(right, _JOINS[(left, right)][1]))
        for left, right in kept)
    return SPJQuery(
        name="random",
        relations=tuple(RelationRef.base(a, a) for a in aliases),
        filters=filters,
        join_predicates=joins,
        aggregates=(AggregateSpec("count", None, "cnt"),),
    )


@pytest.fixture(scope="module")
def prop_db(tiny_schema):
    return build_tiny_database(tiny_schema, seed=5)


@given(spj=random_spj(), strategy=st.sampled_from(list(QSAStrategy)))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_qsa_always_covers(tiny_schema, spj, strategy):
    subqueries = generate_subqueries(spj, tiny_schema, strategy)
    assert covers(subqueries, spj)


@given(spj=random_spj(),
       strategy=st.sampled_from(list(QSAStrategy)),
       cost_function=st.sampled_from([CostFunction.PHI1, CostFunction.PHI4,
                                      CostFunction.PHI5]))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_querysplit_matches_direct_execution(prop_db, spj, strategy, cost_function):
    """Theorem 1: QuerySplit's answer equals the original query's answer."""
    expected = Executor(prop_db).execute(Optimizer(prop_db).plan(spj)).table.to_rows()
    config = QuerySplitConfig(qsa_strategy=strategy, cost_function=cost_function)
    runner = QuerySplitExecutor(prop_db, Optimizer(prop_db), config=config)
    report = runner.run(Query.from_spj(spj))
    assert report.final_table.to_rows() == expected


@given(spj=random_spj())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_similarity_symmetric_and_bounded(prop_db, spj):
    plan_a = Optimizer(prop_db).plan(spj)
    plan_b = Optimizer(prop_db).plan(spj)
    score = plan_similarity(plan_a, plan_b)
    assert score == plan_similarity(plan_b, plan_a)
    assert 0 <= score <= len(spj.relations)


@given(spj=random_spj())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_substitution_drops_only_internal_predicates(prop_db, spj):
    """Substituting a temp covering some aliases never loses external predicates."""
    aliases = sorted(spj.covered_aliases())
    if len(aliases) < 2:
        return
    covered = frozenset(aliases[:2])
    temp = RelationRef.temp("__temp_x", covered)
    rewritten = spj.substitute(temp)
    kept = set(rewritten.join_predicates)
    for pred in spj.join_predicates:
        internal = all(alias in covered for alias in pred.aliases())
        assert (pred not in kept) == internal or not internal
