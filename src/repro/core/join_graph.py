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
    """The directed join graph of an SPJ query."""

    vertices: tuple[str, ...]
    edges: list[JoinEdge] = field(default_factory=list)
    removed_edges: list[JoinEdge] = field(default_factory=list)

    def outgoing(self, vertex: str) -> list[JoinEdge]:
        """Edges leaving ``vertex`` (bidirectional edges leave both endpoints)."""
        result = []
        for edge in self.edges:
            if edge.source == vertex:
                result.append(edge)
            elif edge.bidirectional and edge.target == vertex:
                result.append(edge)
        return result

    def incoming(self, vertex: str) -> list[JoinEdge]:
        """Edges entering ``vertex`` (bidirectional edges enter both endpoints)."""
        result = []
        for edge in self.edges:
            if edge.target == vertex:
                result.append(edge)
            elif edge.bidirectional and edge.source == vertex:
                result.append(edge)
        return result

    def neighbors_out(self, vertex: str) -> list[str]:
        """Vertices reachable over outgoing edges of ``vertex``."""
        targets = []
        for edge in self.outgoing(vertex):
            other = edge.target if edge.source == vertex else edge.source
            if other not in targets:
                targets.append(other)
        return targets

    def centers(self) -> list[str]:
        """Vertices with at least one outgoing edge (subquery centers)."""
        return [v for v in self.vertices if self.outgoing(v)]

    def isolated(self) -> list[str]:
        """Vertices with no edge at all (cross-product relations)."""
        connected = set()
        for edge in self.edges:
            connected.add(edge.source)
            connected.add(edge.target)
        return [v for v in self.vertices if v not in connected]

    def reversed(self) -> "JoinGraph":
        """The graph with all directed edges reversed (PK-Center strategy)."""
        return JoinGraph(
            vertices=self.vertices,
            edges=[
                JoinEdge(source=e.target, target=e.source, predicate=e.predicate,
                         bidirectional=e.bidirectional, kind=e.kind)
                for e in self.edges
            ],
            removed_edges=list(self.removed_edges),
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
        kind = schema.join_kind(left_table, pred.left.column,
                                right_table, pred.right.column)
        if kind == "pk-fk":
            if schema.is_fk_reference(left_table, pred.left.column,
                                      right_table, pred.right.column):
                source, target = left_alias, right_alias
            else:
                source, target = right_alias, left_alias
            edges.append(JoinEdge(source=source, target=target, predicate=pred,
                                  bidirectional=False, kind=kind))
        else:
            edges.append(JoinEdge(source=left_alias, target=right_alias,
                                  predicate=pred, bidirectional=True, kind=kind))

    graph = JoinGraph(vertices=vertices, edges=edges)
    if remove_redundant:
        _remove_redundant_edges(graph)
    return graph


def _remove_redundant_edges(graph: JoinGraph) -> None:
    """Break cycles in the (undirected view of the) join graph.

    Edges are removed one at a time until the graph is acyclic, preferring
    bidirectional (non-PK-FK) edges, exactly as the paper prescribes for
    join cycles like ``mk -- t -- ci -- mk`` in JOB query 6d: of the first
    cycle :func:`_find_cycle` meets, the first bidirectional edge goes, or
    the first edge if every one is directed.
    """
    # vertex -> neighbour -> keys (indexes into graph.edges) of the edges
    # between them, in insertion order; a self-loop is listed once.
    adjacency: dict[str, dict[str, list[int]]] = {v: {} for v in graph.vertices}
    for key, edge in enumerate(graph.edges):
        adjacency.setdefault(edge.source, {}).setdefault(edge.target, []).append(key)
        if edge.target != edge.source:
            adjacency.setdefault(edge.target, {}).setdefault(
                edge.source, []).append(key)
    removed: list[int] = []
    while (cycle := _find_cycle(adjacency, set(removed))) is not None:
        removed.append(next((key for key in cycle if graph.edges[key].bidirectional),
                            cycle[0]))
    graph.removed_edges.extend(graph.edges[key] for key in removed)
    graph.edges[:] = [edge for key, edge in enumerate(graph.edges)
                      if key not in removed]


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
