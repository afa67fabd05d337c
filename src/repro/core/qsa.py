"""Query Splitting Algorithm (QSA) strategies (Section 4.1).

Three strategies are implemented, matching the paper's evaluation:

* **FK-Center** (the paper's default, also called "RCenter"): every relation
  with at least one outgoing edge in the directed join graph -- i.e. every
  R-relation holding foreign keys -- becomes the center of one subquery
  together with all relations it points to.  This keeps as many
  non-expanding PK-FK joins inside each subquery as possible.
* **PK-Center** ("ECenter"): the dual strategy on the reversed graph, used as
  an ablation baseline.
* **MinSubquery**: one two-relation subquery per join predicate -- the finest
  possible granularity.

All strategies guarantee the covering property of Definition 1; a repair step
adds minimal subqueries for any join predicate whose endpoints never co-occur
(which can happen after redundant-edge removal on unusual join graphs).
"""

from __future__ import annotations

import enum

from repro.catalog.schema import Schema
from repro.core.join_graph import JoinGraph, build_join_graph
from repro.core.subquery import assert_covers, coverage_gaps
from repro.plan.logical import RelationRef, SPJQuery


class QSAStrategy(enum.Enum):
    """Available subquery-generation strategies."""

    FK_CENTER = "fk_center"
    PK_CENTER = "pk_center"
    MIN_SUBQUERY = "min_subquery"


def generate_subqueries(query: SPJQuery, schema: Schema,
                        strategy: QSAStrategy = QSAStrategy.FK_CENTER,
                        validate: bool = True) -> list[SPJQuery]:
    """Split ``query`` into a covering set of subqueries."""
    if len(query.relations) <= 2:
        subqueries = [_make_subquery(query, list(query.relations), 0)]
    elif strategy is QSAStrategy.MIN_SUBQUERY:
        subqueries = _min_subqueries(query)
    else:
        graph = build_join_graph(query, schema)
        if strategy is QSAStrategy.PK_CENTER:
            graph = graph.reversed()
        subqueries = _center_subqueries(query, graph)
    # No gap proves coverage; only a repaired set needs checking again.
    if coverage_gaps(subqueries, query):
        subqueries = _repair_coverage(query, subqueries)
        if validate:
            assert_covers(subqueries, query)
    return subqueries


# ----------------------------------------------------------------------
# Center-based strategies (FK-Center / PK-Center)
# ----------------------------------------------------------------------
def _center_subqueries(query: SPJQuery, graph: JoinGraph) -> list[SPJQuery]:
    subqueries: list[SPJQuery] = []
    counter = 0
    seen_alias_sets: set[frozenset[str]] = set()
    for center in graph.centers():
        members = [center] + graph.neighbors_out(center)
        alias_set = frozenset(members)
        if alias_set in seen_alias_sets:
            continue
        seen_alias_sets.add(alias_set)
        relations = [query.relation(alias) for alias in members]
        subqueries.append(_make_subquery(query, relations, counter))
        counter += 1
    covered = {alias for sub in subqueries for alias in sub.covered_aliases()}
    for alias in query.relation_aliases:
        if alias not in covered:
            subqueries.append(_make_subquery(query, [query.relation(alias)], counter))
            counter += 1
    return subqueries


# ----------------------------------------------------------------------
# MinSubquery strategy
# ----------------------------------------------------------------------
def _min_subqueries(query: SPJQuery) -> list[SPJQuery]:
    subqueries: list[SPJQuery] = []
    counter = 0
    seen_pairs: set[frozenset[str]] = set()
    for pred in query.join_predicates:
        pair = pred.aliases()
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        relations = [query.relation_covering(alias) for alias in sorted(pair)]
        subqueries.append(_make_subquery(query, relations, counter))
        counter += 1
    covered = {alias for sub in subqueries for alias in sub.covered_aliases()}
    for alias in query.relation_aliases:
        if alias not in covered:
            subqueries.append(_make_subquery(query, [query.relation(alias)], counter))
            counter += 1
    return subqueries


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _make_subquery(query: SPJQuery, relations: list[RelationRef],
                   counter: int) -> SPJQuery:
    """Build a subquery over ``relations`` with every internal predicate."""
    covered: set[str] = set()
    for rel in relations:
        covered.update(rel.covered_aliases)
    filters = tuple(
        pred for pred in query.filters
        if all(alias in covered for alias in pred.aliases()))
    joins = tuple(
        pred for pred in query.join_predicates
        if all(alias in covered for alias in pred.aliases()))
    return SPJQuery(
        name=f"{query.name}/S{counter}",
        relations=tuple(relations),
        filters=filters,
        join_predicates=joins,
    )


def _repair_coverage(query: SPJQuery, subqueries: list[SPJQuery]) -> list[SPJQuery]:
    """Add minimal subqueries for any join predicate left uncovered."""
    covered_joins = {pred for sub in subqueries for pred in sub.join_predicates}
    counter = len(subqueries)
    for pred in query.join_predicates:
        if pred in covered_joins:
            continue
        # Is the predicate inside some subquery's relation set already?  If it
        # is, _make_subquery would have included it, so build a fresh pair.
        relations = [query.relation_covering(alias) for alias in sorted(pred.aliases())]
        subqueries = subqueries + [_make_subquery(query, relations, counter)]
        counter += 1
        covered_joins.update(subqueries[-1].join_predicates)
    return subqueries
