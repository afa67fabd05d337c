"""Physical plan trees produced by the optimizer.

A physical plan for an SPJ query is a binary join tree whose leaves are
:class:`ScanNode` (sequential scan + pushed-down filters over a base table or
a materialized temporary) and whose internal nodes are :class:`JoinNode` with
one of the three join methods the executor has:

* ``HASH``      -- hash join (build on the right/inner child);
* ``INDEX_NL``  -- index nested-loop join: the outer child is probed against a
  B+tree-style index on the inner base table (the inner child must be a scan
  of an indexed base relation);
* ``NL``        -- naive nested-loop join (only used as a last resort, e.g.
  cross products).

The optimizer annotates every node with its estimated output cardinality and
cumulative cost, and the executor later fills in the *actual* values, which
is what the re-optimization triggers compare against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.plan.expressions import ColumnRef, JoinPredicate, Predicate
from repro.plan.logical import AggregateSpec, RelationRef


class JoinMethod(enum.Enum):
    """Physical join algorithm."""

    HASH = "hash"
    INDEX_NL = "index_nl"
    NL = "nl"


def scan_signature(relation: RelationRef,
                   filters: tuple[Predicate, ...]) -> tuple:
    """Canonical signature of one filtered scan.

    The single definition of the scan-key encoding, used by
    :meth:`PlanNode.signature` (the executor's subplan-cache key) and by the
    true-cardinality oracle's memo, which keys each relation by its
    filtered scan.
    """
    return ("scan", relation.table_name, relation.alias, relation.is_temp,
            frozenset(filters))


@dataclass
class PlanNode:
    """Base class for physical plan nodes."""

    est_rows: float = field(default=0.0, kw_only=True)
    est_cost: float = field(default=0.0, kw_only=True)
    actual_rows: int | None = field(default=None, kw_only=True)
    actual_time: float | None = field(default=None, kw_only=True)

    def children(self) -> tuple["PlanNode", ...]:
        """Child plan nodes."""
        raise NotImplementedError

    def covered_aliases(self) -> frozenset[str]:
        """Original query aliases whose columns this subtree produces."""
        raise NotImplementedError

    def leaf_relations(self) -> tuple[RelationRef, ...]:
        """All scanned relations in this subtree, left to right."""
        leaves: list[RelationRef] = []
        stack: list[PlanNode] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, ScanNode):
                leaves.append(node.relation)
            else:
                stack.extend(reversed(node.children()))
        return tuple(leaves)

    def join_nodes(self) -> tuple["JoinNode", ...]:
        """All join nodes in this subtree (post-order: deepest joins first)."""
        joins: list[JoinNode] = []

        def visit(node: PlanNode) -> None:
            for child in node.children():
                visit(child)
            if isinstance(node, JoinNode):
                joins.append(node)

        visit(self)
        return tuple(joins)

    def signature(self) -> tuple[frozenset, frozenset]:
        """Canonical logical signature of this subtree's result.

        Two subtrees with equal signatures produce the same multiset of rows:
        the signature records *what* is computed (filtered scans + applied
        join predicates) and deliberately ignores *how* (join order, physical
        join method, index choice).  The engine-level
        :class:`~repro.executor.subplan_cache.SubplanCache` keys on it, which
        is what lets different re-optimization policies share each other's
        executed subtrees.
        """
        scans: list[tuple] = []
        preds: list = []
        stack: list[PlanNode] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, ScanNode):
                scans.append(scan_signature(node.relation, node.filters))
            elif isinstance(node, JoinNode):
                preds.extend(node.predicates)
                stack.extend(node.children())
        return (frozenset(scans), frozenset(preds))


@dataclass
class ScanNode(PlanNode):
    """Sequential scan of a relation with pushed-down filter predicates."""

    relation: RelationRef
    filters: tuple[Predicate, ...] = ()

    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def covered_aliases(self) -> frozenset[str]:
        return self.relation.covered_aliases

    def __str__(self) -> str:
        return f"Scan({self.relation.alias}, rows~{self.est_rows:.0f})"


@dataclass
class JoinNode(PlanNode):
    """Binary join of two subplans."""

    left: PlanNode
    right: PlanNode
    predicates: tuple[JoinPredicate, ...]
    method: JoinMethod = JoinMethod.HASH
    #: For INDEX_NL joins: the indexed column of the inner (right) relation.
    index_column: ColumnRef | None = None

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def covered_aliases(self) -> frozenset[str]:
        return self.left.covered_aliases() | self.right.covered_aliases()

    @property
    def is_pipeline_breaker(self) -> bool:
        """True if this join fully materializes one input before producing output.

        Hash joins consume their build input entirely before emitting the
        first output tuple; nested-loop joins (plain or index-based) stream.  This distinction is what the Reopt baseline's
        "materialize at pipeline breakers" policy keys on.
        """
        return self.method is JoinMethod.HASH

    def __str__(self) -> str:
        return (f"Join[{self.method.value}]({', '.join(str(p) for p in self.predicates)},"
                f" rows~{self.est_rows:.0f})")


@dataclass
class PhysicalPlan:
    """A complete physical plan for one SPJ query."""

    query_name: str
    root: PlanNode
    output_columns: tuple[ColumnRef, ...] = ()
    aggregates: tuple[AggregateSpec, ...] = ()
    group_by: tuple[ColumnRef, ...] = ()

    @property
    def est_rows(self) -> float:
        """Estimated output cardinality of the plan root."""
        return self.root.est_rows

    @property
    def est_cost(self) -> float:
        """Estimated total cost of the plan."""
        return self.root.est_cost

    def leaf_relations(self) -> tuple[RelationRef, ...]:
        """All scanned relations."""
        return self.root.leaf_relations()

    def join_nodes(self) -> tuple[JoinNode, ...]:
        """All joins, deepest first."""
        return self.root.join_nodes()

    def explain(self, node: PlanNode | None = None, depth: int = 0) -> str:
        """Produce a human-readable EXPLAIN-style rendering of the plan."""
        node = node or self.root
        pad = "  " * depth
        lines = [f"{pad}{node}"]
        for child in node.children():
            lines.append(self.explain(child, depth + 1))
        return "\n".join(lines)

    def intermediate_relation_sets(self, include_root: bool = False) -> set[frozenset[str]]:
        """Alias sets produced by intermediate join nodes (for plan similarity)."""
        sets = {join.covered_aliases() for join in self.join_nodes()}
        if not include_root:
            sets.discard(self.root.covered_aliases())
        return sets
