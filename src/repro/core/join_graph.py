"""Directed join graphs (Section 4.1, Figure 8 of the paper).

Every relation referenced by the query becomes a vertex; every equi-join
predicate becomes an edge.  Edges derived from primary/foreign-key joins are
directed from the referencing side (the *R-relation*, i.e. "relationship" /
fact table) to the referenced side (the *E-relation*, i.e. "entity" /
dimension table); joins between relations of the same kind -- or joins that
are not PK-FK joins at all -- are bidirectional.

Redundant join predicates that close cycles in the graph (typically equality
predicates implied by transitivity, such as the ``ci.movie_id = mk.movie_id``
edge of JOB query 6d) are removed, preferring to drop bidirectional edges,
exactly as described in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.catalog.schema import Schema
from repro.plan.expressions import JoinPredicate
from repro.plan.logical import SPJQuery


@dataclass(frozen=True)
class JoinEdge:
    """One edge of the directed join graph."""

    source: str
    target: str
    predicate: JoinPredicate
    bidirectional: bool = False
    kind: str = "other"

    def endpoints(self) -> frozenset[str]:
        """The two vertices the edge connects."""
        return frozenset((self.source, self.target))


@dataclass
class JoinGraph:
    """The directed join graph of an SPJ query.

    ``edges`` are fixed once the graph is built (they are a tuple): each
    vertex's outgoing edges are indexed once, at construction, and
    :meth:`neighbors_out` and :meth:`centers` read that index rather than
    scanning the edges.
    """

    vertices: tuple[str, ...]
    edges: tuple[JoinEdge, ...] = ()
    removed_edges: tuple[JoinEdge, ...] = ()
    #: vertex -> its outgoing edges (bidirectional edges leave both
    #: endpoints), in ``edges`` order.
    _outgoing: dict[str, list[JoinEdge]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        outgoing: dict[str, list[JoinEdge]] = {}
        for edge in self.edges:
            outgoing.setdefault(edge.source, []).append(edge)
            if edge.bidirectional and edge.target != edge.source:
                outgoing.setdefault(edge.target, []).append(edge)
        self._outgoing = outgoing

    def neighbors_out(self, vertex: str) -> list[str]:
        """Vertices reachable over outgoing edges of ``vertex``."""
        targets = []
        for edge in self._outgoing.get(vertex, ()):
            other = edge.target if edge.source == vertex else edge.source
            if other not in targets:
                targets.append(other)
        return targets

    def centers(self) -> list[str]:
        """Vertices with at least one outgoing edge (subquery centers)."""
        return [v for v in self.vertices if v in self._outgoing]

    def reversed(self) -> "JoinGraph":
        """The graph with all directed edges reversed (PK-Center strategy)."""
        return JoinGraph(
            vertices=self.vertices,
            edges=tuple(
                JoinEdge(source=e.target, target=e.source, predicate=e.predicate,
                         bidirectional=e.bidirectional, kind=e.kind)
                for e in self.edges
            ),
            removed_edges=self.removed_edges,
        )


def build_join_graph(query: SPJQuery, schema: Schema,
                     remove_redundant: bool = True) -> JoinGraph:
    """Build the directed join graph of ``query`` using PK/FK metadata."""
    vertices = tuple(r.alias for r in query.relations)
    table_of = {r.alias: r.table_name for r in query.relations}
    edges: list[JoinEdge] = []
    for pred in query.join_predicates:
        left_alias, right_alias = pred.left.alias, pred.right.alias
        left_table = table_of.get(left_alias, left_alias)
        right_table = table_of.get(right_alias, right_alias)
        # A foreign key on either side makes the edge PK-FK (what
        # Schema.join_kind calls "pk-fk"), directed from that side.
        if schema.is_fk_reference(left_table, pred.left.column,
                                  right_table, pred.right.column):
            edges.append(JoinEdge(source=left_alias, target=right_alias,
                                  predicate=pred, kind="pk-fk"))
        elif schema.is_fk_reference(right_table, pred.right.column,
                                    left_table, pred.left.column):
            edges.append(JoinEdge(source=right_alias, target=left_alias,
                                  predicate=pred, kind="pk-fk"))
        else:
            kind = schema.join_kind(left_table, pred.left.column,
                                    right_table, pred.right.column)
            edges.append(JoinEdge(source=left_alias, target=right_alias,
                                  predicate=pred, bidirectional=True, kind=kind))

    if not remove_redundant:
        return JoinGraph(vertices=vertices, edges=tuple(edges))
    kept, removed = _remove_redundant_edges(vertices, edges)
    return JoinGraph(vertices=vertices, edges=kept, removed_edges=removed)


def _remove_redundant_edges(vertices: tuple[str, ...], edges: list[JoinEdge]
                            ) -> tuple[tuple[JoinEdge, ...], tuple[JoinEdge, ...]]:
    """Break cycles in the (undirected view of the) join graph.

    Returns the kept edges, in ``edges`` order, and the removed ones, in
    the order they were removed.

    Edges are removed one at a time until the graph is acyclic, preferring
    bidirectional (non-PK-FK) edges, exactly as the paper prescribes for
    join cycles like ``mk -- t -- ci -- mk`` in JOB query 6d: of the first
    cycle :func:`_find_cycle` meets, the first bidirectional edge goes, or
    the first edge if every one is directed.
    """
    # vertex -> neighbour -> keys (indexes into edges) of the edges
    # between them, in insertion order; a self-loop is listed once.
    adjacency: dict[str, dict[str, list[int]]] = {v: {} for v in vertices}
    for key, edge in enumerate(edges):
        adjacency.setdefault(edge.source, {}).setdefault(edge.target, []).append(key)
        if edge.target != edge.source:
            adjacency.setdefault(edge.target, {}).setdefault(
                edge.source, []).append(key)
    removed: list[int] = []
    while (cycle := _find_cycle(adjacency, set(removed))) is not None:
        removed.append(next((key for key in cycle if edges[key].bidirectional),
                            cycle[0]))
    return (tuple(edge for key, edge in enumerate(edges) if key not in removed),
            tuple(edges[key] for key in removed))


def _find_cycle(adjacency: dict[str, dict[str, list[int]]],
                removed: set[int]) -> list[int] | None:
    """Keys of the first cycle a depth-first walk meets, or ``None``.

    The walk starts from each unseen vertex in ``adjacency`` order and
    follows every edge not in ``removed`` once, in ``adjacency`` order; the
    first edge that reaches a vertex on the current path closes the cycle,
    which is reported from that vertex on, in walk order.  (The search, and
    so the cycle, of ``networkx.find_cycle`` on the equivalent multigraph.)
    """
    def incident(vertex: str) -> Iterator[tuple[str, int]]:
        return ((neighbour, key) for neighbour, keys in adjacency[vertex].items()
                for key in keys)

    seen: set[str] = set()
    used = set(removed)
    for start in adjacency:
        if start in seen:
            continue
        seen.add(start)
        path, keys = [start], []
        walks = [incident(start)]
        while walks:
            step = next(walks[-1], None)
            if step is None:
                walks.pop()
                path.pop()
                if keys:
                    keys.pop()
            elif step[1] not in used:
                neighbour, key = step
                used.add(key)
                if neighbour in path:
                    return keys[path.index(neighbour):] + [key]
                seen.add(neighbour)
                path.append(neighbour)
                keys.append(key)
                walks.append(incident(neighbour))
    return None
