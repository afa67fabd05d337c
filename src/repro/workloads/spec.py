"""Compact query-specification helpers.

The 91 JOB-style queries (plus the TPC-H and DSB workloads) are written as
small declarative specs; :func:`build_spj` turns a spec into a validated
:class:`repro.plan.logical.SPJQuery`.

A spec uses strings of the form ``"alias.column"`` for columns and pairs of
such strings for join predicates, which keeps the query catalogues readable::

    build_spj(
        name="6d",
        relations={"t": "title", "mk": "movie_keyword", "k": "keyword"},
        joins=[("mk.movie_id", "t.id"), ("mk.keyword_id", "k.id")],
        filters=[gt("t.production_year", 2005), like("k.keyword", "marvel")],
        min_outputs=["t.title", "k.keyword"],
    )
"""

from __future__ import annotations

from repro.plan.expressions import (
    Between,
    ColumnRef,
    Comparison,
    InList,
    JoinPredicate,
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


def col(qualified: str) -> ColumnRef:
    """Parse ``"alias.column"`` into a :class:`ColumnRef`."""
    alias, _, column = qualified.partition(".")
    if not column:
        raise ValueError(f"column reference {qualified!r} must be alias-qualified")
    return ColumnRef(alias, column)


# ----------------------------------------------------------------------
# Filter-predicate shorthands
# ----------------------------------------------------------------------
def eq(column: str, value) -> Comparison:
    """``column = value``."""
    return Comparison(col(column), "=", value)


def ne(column: str, value) -> Comparison:
    """``column != value``."""
    return Comparison(col(column), "!=", value)


def gt(column: str, value) -> Comparison:
    """``column > value``."""
    return Comparison(col(column), ">", value)


def ge(column: str, value) -> Comparison:
    """``column >= value``."""
    return Comparison(col(column), ">=", value)


def lt(column: str, value) -> Comparison:
    """``column < value``."""
    return Comparison(col(column), "<", value)


def le(column: str, value) -> Comparison:
    """``column <= value``."""
    return Comparison(col(column), "<=", value)


def between(column: str, low, high) -> Between:
    """``column BETWEEN low AND high``."""
    return Between(col(column), low, high)


def isin(column: str, values) -> InList:
    """``column IN (values...)``."""
    return InList(col(column), tuple(values))


def like(column: str, needle: str) -> StringContains:
    """``column LIKE '%needle%'``."""
    return StringContains(col(column), needle)


def prefix(column: str, value: str) -> StringPrefix:
    """``column LIKE 'value%'``."""
    return StringPrefix(col(column), value)


# ----------------------------------------------------------------------
# Query builders
# ----------------------------------------------------------------------
def build_spj(name: str, relations: dict[str, str],
              joins: list[tuple[str, str]],
              filters: list[Predicate] | None = None,
              min_outputs: list[str] | None = None,
              projections: list[str] | None = None,
              count_output: bool = True) -> SPJQuery:
    """Build an SPJ query from a compact spec.

    ``min_outputs`` produces JOB-style ``MIN(col) AS ...`` scalar aggregates;
    ``count_output`` additionally emits a ``COUNT(*)`` so every query has a
    deterministic, easily comparable result.
    """
    relation_refs = tuple(
        RelationRef.base(alias, table) for alias, table in relations.items())
    join_predicates = tuple(
        JoinPredicate(col(left), col(right)) for left, right in joins)
    aggregates: list[AggregateSpec] = []
    if count_output:
        aggregates.append(AggregateSpec("count", None, "row_count"))
    for output in min_outputs or []:
        ref = col(output)
        aggregates.append(AggregateSpec("min", ref, f"min_{ref.alias}_{ref.column}"))
    return SPJQuery(
        name=name,
        relations=relation_refs,
        filters=tuple(filters or ()),
        join_predicates=join_predicates,
        projections=tuple(col(p) for p in (projections or [])),
        aggregates=tuple(aggregates),
    )


def grouped_query(name: str, spj: SPJQuery, group_by: list[str],
                  aggregates: list[tuple[str, str | None, str]]) -> Query:
    """A non-SPJ query: GROUP BY aggregation over an SPJ block.

    ``aggregates`` entries are ``(func, column_or_None, output_name)``.
    """
    spj = spj.with_projections(())
    specs = tuple(
        AggregateSpec(func, col(column) if column else None, output)
        for func, column, output in aggregates)
    node = AggregateNode(child=SPJNode(spj),
                         group_by=tuple(col(g) for g in group_by),
                         aggregates=specs)
    return Query(name=name, root=node)


def union_query(name: str, parts: list[Query]) -> Query:
    """A non-SPJ query: UNION ALL of the root nodes of ``parts``."""
    return Query(name=name, root=UnionNode(tuple(part.root for part in parts)))
