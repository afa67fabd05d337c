"""A tiny row-at-a-time reference evaluator for differential testing.

This is the *oracle* side of ``tests/test_differential.py``: a deliberately
naive, per-row Python implementation of the query semantics the vectorized
engine is supposed to have.  It shares **no code** with the executor --
predicates are re-implemented with plain Python comparisons, joins are
hash-assisted nested loops over row dicts, and aggregates are computed with
``len``/``min``/``max``/``math.fsum`` -- so a bug in the numpy kernels
(selection vectors, dictionary-code predicates, reduceat segment
aggregation, join matching) cannot cancel out on both sides.

The entry point is :func:`reference_execute`, which evaluates a
:class:`~repro.plan.logical.Query` (an SPJ tree, optionally wrapped in one
GROUP BY aggregate node -- the shapes ``sqlgen`` generates) against a
:class:`~repro.storage.database.Database` and returns
``{group_key_tuple: {output_name: value}}``.  :func:`canonicalize_table`
puts an executor result table in the same form, and
:func:`assert_results_match` compares the two with exact equality for
counts/keys/min/max and a tight relative tolerance for float sums and
averages (different join orders legitimately re-associate float additions).
"""

from __future__ import annotations

import math

from repro.plan.expressions import (
    Between,
    Comparison,
    InList,
    IsNotNull,
    OrPredicate,
    StringContains,
    StringPrefix,
)
from repro.plan.logical import AggregateNode, Query, SPJNode, SPJQuery


# ----------------------------------------------------------------------
# Row-at-a-time predicate semantics
# ----------------------------------------------------------------------
def _is_null(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def predicate_matches(predicate, value_of) -> bool:
    """Evaluate one filter predicate against a single row.

    ``value_of(ref)`` returns the row's Python value for a column reference.
    Null semantics mirror the vectorized kernels: nulls fail every shape
    except ``!=`` (NaN != x and None != x are both True element-wise).
    """
    if isinstance(predicate, OrPredicate):
        return any(predicate_matches(child, value_of)
                   for child in predicate.children)
    if isinstance(predicate, IsNotNull):
        return not _is_null(value_of(predicate.column))
    value = value_of(predicate.column)
    if isinstance(predicate, Comparison):
        if _is_null(value):
            return predicate.op == "!="
        ops = {"=": lambda a, b: a == b, "!=": lambda a, b: a != b,
               "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
               ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}
        return bool(ops[predicate.op](value, predicate.value))
    if _is_null(value):
        return False
    if isinstance(predicate, Between):
        return bool(predicate.low <= value <= predicate.high)
    if isinstance(predicate, InList):
        return any(value == v for v in predicate.values)
    if isinstance(predicate, StringPrefix):
        return isinstance(value, str) and value.startswith(predicate.prefix)
    if isinstance(predicate, StringContains):
        return isinstance(value, str) and predicate.needle in value
    raise NotImplementedError(f"reference evaluator: {type(predicate).__name__}")


# ----------------------------------------------------------------------
# Scans and joins over row dicts
# ----------------------------------------------------------------------
def _python_value(value):
    return value.item() if hasattr(value, "item") else value


def _table_rows(database, spj: SPJQuery, relation) -> list[dict]:
    """The filtered rows of one base relation, as per-row column dicts."""
    table = database.table(relation.table_name)
    names = table.column_names
    # column_values decodes dictionary-encoded storage: the reference
    # evaluator always compares real values.
    arrays = [table.column_values(name, cache=False) for name in names]
    filters = spj.filters_for(relation)
    rows = []
    for i in range(table.num_rows):
        row = {name: _python_value(arr[i]) for name, arr in zip(names, arrays)}
        if all(predicate_matches(pred, lambda ref: row[ref.column])
               for pred in filters):
            rows.append(row)
    return rows


def _join_rows(database, spj: SPJQuery) -> list[dict]:
    """Nested-loop join of all relations; returns ``{alias: row}`` tuples."""
    per_alias = {rel.alias: _table_rows(database, spj, rel)
                 for rel in spj.relations}
    remaining = list(spj.join_predicates)
    aliases = list(per_alias)
    joined = {aliases[0]}
    tuples = [{aliases[0]: row} for row in per_alias[aliases[0]]]

    while len(joined) < len(aliases):
        # Pick a predicate that connects the joined set to a new relation.
        pivot = next((p for p in remaining
                      if (p.left.alias in joined) != (p.right.alias in joined)),
                     None)
        if pivot is None:  # disconnected: cross product with the next alias
            alias = next(a for a in aliases if a not in joined)
            tuples = [dict(t, **{alias: row})
                      for t in tuples for row in per_alias[alias]]
            joined.add(alias)
            continue
        inner_ref = (pivot.left if pivot.left.alias not in joined
                     else pivot.right)
        outer_ref = pivot.other(inner_ref.alias)
        remaining.remove(pivot)
        index: dict = {}
        for row in per_alias[inner_ref.alias]:
            index.setdefault(row[inner_ref.column], []).append(row)
        tuples = [dict(t, **{inner_ref.alias: row})
                  for t in tuples
                  for row in index.get(t[outer_ref.alias][outer_ref.column], [])]
        joined.add(inner_ref.alias)
        # Apply any further predicates now internal to the joined set.
        for pred in list(remaining):
            if pred.left.alias in joined and pred.right.alias in joined:
                remaining.remove(pred)
                tuples = [t for t in tuples
                          if t[pred.left.alias][pred.left.column]
                          == t[pred.right.alias][pred.right.column]]
    return tuples


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _aggregate_group(tuples: list[dict], aggregates) -> dict:
    out = {}
    for spec in aggregates:
        if spec.func == "count":
            out[spec.output_name] = len(tuples)
            continue
        values = [t[spec.column.alias][spec.column.column] for t in tuples]
        if not values:
            out[spec.output_name] = None
        elif spec.func == "min":
            out[spec.output_name] = min(values)
        elif spec.func == "max":
            out[spec.output_name] = max(values)
        elif spec.func == "sum":
            out[spec.output_name] = (math.fsum(values)
                                     if any(isinstance(v, float) for v in values)
                                     else sum(values))
        else:  # avg
            out[spec.output_name] = math.fsum(values) / len(values)
    return out


def reference_execute(database, query: Query) -> dict[tuple, dict]:
    """Evaluate ``query`` row at a time: ``{group_key: {name: value}}``.

    Scalar-aggregate queries use the empty tuple as their single group key.
    """
    root = query.root
    if isinstance(root, AggregateNode):
        assert isinstance(root.child, SPJNode), "reference: one GROUP BY level"
        spj = root.child.query
        group_by, aggregates = root.group_by, root.aggregates
    else:
        spj = query.spj
        group_by, aggregates = (), spj.aggregates
    tuples = _join_rows(database, spj)
    if not group_by:
        return {(): _aggregate_group(tuples, aggregates)}
    groups: dict[tuple, list[dict]] = {}
    for t in tuples:
        key = tuple(t[ref.alias][ref.column] for ref in group_by)
        groups.setdefault(key, []).append(t)
    return {key: _aggregate_group(members, aggregates)
            for key, members in groups.items()}


# ----------------------------------------------------------------------
# Comparing against executor result tables
# ----------------------------------------------------------------------
def canonicalize_table(table) -> dict[tuple, dict]:
    """An executor result table in :func:`reference_execute`'s shape.

    Group-by key columns are the qualified (``alias.column``) ones;
    aggregate outputs never contain a dot.
    """
    # column_values decodes: result tables keep strings dictionary-encoded.
    columns = {n: table.column_values(n, cache=False)
               for n in table.column_names}
    key_names = [n for n in columns if "." in n]
    value_names = [n for n in columns if "." not in n]
    result: dict[tuple, dict] = {}
    for i in range(table.num_rows):
        key = tuple(_python_value(columns[n][i]) for n in key_names)
        result[key] = {n: _python_value(columns[n][i]) for n in value_names}
    return result


def _values_match(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def assert_results_match(expected: dict[tuple, dict], actual: dict[tuple, dict],
                         context: str) -> None:
    """Fail with ``context`` on any group/row-count/aggregate mismatch."""
    assert set(expected) == set(actual), (
        f"{context}: group keys differ "
        f"(missing={sorted(set(expected) - set(actual))[:3]}, "
        f"extra={sorted(set(actual) - set(expected))[:3]})")
    for key, values in expected.items():
        got = actual[key]
        assert set(values) == set(got), (
            f"{context}: output columns differ for group {key!r}: "
            f"{sorted(values)} vs {sorted(got)}")
        for name, value in values.items():
            assert _values_match(value, got[name]), (
                f"{context}: group {key!r} aggregate {name!r}: "
                f"expected {value!r}, got {got[name]!r}")
