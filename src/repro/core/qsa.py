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
(which can happen after redundant-edge removal on unusual join graphs).  The
check that finds such a gap runs only where one can exist (see
:func:`generate_subqueries`).
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
    """Split ``query`` (a block over base relations) into a covering set of
    subqueries.

    The covering check (:func:`~repro.core.subquery.coverage_gaps`) runs
    only where a gap can exist.  Every subquery is built by
    :meth:`_Scopes.subquery`, so it holds every filter and join predicate
    whose aliases it covers; a predicate is therefore covered as soon as
    one subquery holds all of the relations it reads.  By construction:

    * every relation is in some subquery (each strategy ends by adding a
      single-relation subquery for any relation not yet in one), so every
      filter that reads at most one relation is covered, and no subquery
      reads a relation the query lacks;
    * with at most two relations the one subquery holds them all (and so
      is built without looking at a predicate);
    * MinSubquery builds a subquery over the relations of every join
      predicate;
    * FK-/PK-Center builds one subquery per vertex with an outgoing edge,
      over the vertex and every vertex its outgoing edges reach (a subquery
      with the same relations as an earlier one is dropped, since it would
      hold the same predicates).  A directed edge leaves its source and a
      bidirectional one both endpoints, so both endpoints of every edge
      kept in the join graph lie in one subquery; only an edge removed to
      break a cycle may have none.

    So a gap is possible only when a filter reads two or more relations, or
    -- for the center strategies -- when the join graph lost an edge; only
    then is the set checked, repaired when a gap shows (one two-relation
    subquery per uncovered join predicate) and, with ``validate``, checked
    again.
    """
    if len(query.relations) <= 2:
        # One subquery over every relation holds every predicate.
        return [SPJQuery(name=f"{query.name}/S0", relations=query.relations,
                         filters=query.filters,
                         join_predicates=query.join_predicates)]
    scopes = _Scopes(query)
    lost_edge = False
    if strategy is QSAStrategy.MIN_SUBQUERY:
        subqueries = _min_subqueries(scopes)
    else:
        graph = build_join_graph(query, schema)
        if strategy is QSAStrategy.PK_CENTER:
            graph = graph.reversed()
        subqueries = _center_subqueries(scopes, graph)
        lost_edge = bool(graph.removed_edges)
    if ((lost_edge or any(len(aliases) > 1 for aliases, _ in scopes.filters))
            and coverage_gaps(subqueries, query)):
        subqueries = _repair_coverage(query, subqueries)
        if validate:
            assert_covers(subqueries, query)
    return subqueries


class _Scopes:
    """One query's predicates with the aliases each reads, derived once per
    split for every subquery built from them."""

    def __init__(self, query: SPJQuery):
        self.query = query
        self.filters = [(pred.aliases(), pred) for pred in query.filters]
        self.joins = [(pred.aliases(), pred) for pred in query.join_predicates]

    def subquery(self, relations: list[RelationRef], counter: int) -> SPJQuery:
        """The subquery over ``relations`` with every predicate internal to
        them."""
        covered: set[str] = set()
        for rel in relations:
            covered.update(rel.covered_aliases)
        return SPJQuery(
            name=f"{self.query.name}/S{counter}",
            relations=tuple(relations),
            filters=tuple(pred for aliases, pred in self.filters
                          if aliases <= covered),
            join_predicates=tuple(pred for aliases, pred in self.joins
                                  if aliases <= covered),
        )

    def add_uncovered(self, subqueries: list[SPJQuery]) -> None:
        """Append a single-relation subquery for every relation no subquery
        of ``subqueries`` holds."""
        covered = {alias for sub in subqueries for alias in sub.covered_aliases()}
        for relation in self.query.relations:
            if relation.alias not in covered:
                subqueries.append(self.subquery([relation], len(subqueries)))


# ----------------------------------------------------------------------
# Center-based strategies (FK-Center / PK-Center)
# ----------------------------------------------------------------------
def _center_subqueries(scopes: _Scopes, graph: JoinGraph) -> list[SPJQuery]:
    query = scopes.query
    subqueries: list[SPJQuery] = []
    seen_alias_sets: set[frozenset[str]] = set()
    for center in graph.centers():
        members = [center] + graph.neighbors_out(center)
        alias_set = frozenset(members)
        if alias_set in seen_alias_sets:
            continue
        seen_alias_sets.add(alias_set)
        relations = [query.relation(alias) for alias in members]
        subqueries.append(scopes.subquery(relations, len(subqueries)))
    scopes.add_uncovered(subqueries)
    return subqueries


# ----------------------------------------------------------------------
# MinSubquery strategy
# ----------------------------------------------------------------------
def _min_subqueries(scopes: _Scopes) -> list[SPJQuery]:
    query = scopes.query
    subqueries: list[SPJQuery] = []
    seen_pairs: set[frozenset[str]] = set()
    for pair, _ in scopes.joins:
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        relations = [query.relation_covering(alias) for alias in sorted(pair)]
        subqueries.append(scopes.subquery(relations, len(subqueries)))
    scopes.add_uncovered(subqueries)
    return subqueries


# ----------------------------------------------------------------------
# Repair
# ----------------------------------------------------------------------
def _repair_coverage(query: SPJQuery, subqueries: list[SPJQuery]) -> list[SPJQuery]:
    """Add minimal subqueries for any join predicate left uncovered."""
    scopes = _Scopes(query)
    covered_joins = {pred for sub in subqueries for pred in sub.join_predicates}
    subqueries = list(subqueries)
    for pair, pred in scopes.joins:
        if pred in covered_joins:
            continue
        # Is the predicate inside some subquery's relation set already?  If it
        # is, the subquery would have included it, so build a fresh pair.
        relations = [query.relation_covering(alias) for alias in sorted(pair)]
        subqueries.append(scopes.subquery(relations, len(subqueries)))
        covered_joins.update(subqueries[-1].join_predicates)
    return subqueries
