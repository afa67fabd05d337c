"""Logical query representation.

The central object is :class:`SPJQuery`, the *select-project-join normal
form* of Section 3.2 of the paper: a set of relations, a set of single-table
filter predicates, and a set of equi-join predicates.  QuerySplit and every
re-optimization baseline operate on this form.

A relation inside an :class:`SPJQuery` is a :class:`RelationRef`.  It refers
either to a base table (``covered_aliases == {alias}``) or to a *materialized
temporary table* produced by an earlier re-optimization iteration, in which
case ``covered_aliases`` lists every original alias whose columns the
temporary carries.  Substituting a materialized result into a remaining
subquery (the "Replace overlap" step of Figure 5) therefore amounts to
swapping :class:`RelationRef` objects -- all predicates keep referring to the
original aliases, because temporary tables store columns under their original
qualified names (``t.id``, ``mk.movie_id``, ...).

Non-SPJ queries (needed for TPC-H and DSB) are trees of
:class:`AggregateNode` / :class:`UnionNode` whose leaves are
:class:`SPJNode` wrappers around SPJ queries (Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.plan.expressions import ColumnRef, JoinPredicate, Predicate


@dataclass(frozen=True)
class RelationRef:
    """A relation appearing in an SPJ query.

    Parameters
    ----------
    alias:
        The alias used in predicates (for base tables) or the temporary-table
        name (for materialized intermediates).
    table_name:
        The physical table to read (a schema table or a temporary table).
    covered_aliases:
        The set of original query aliases whose columns this relation
        provides.  A base relation covers exactly its own alias.
    is_temp:
        True for materialized intermediate results.
    """

    alias: str
    table_name: str
    covered_aliases: frozenset[str]
    is_temp: bool = False

    @classmethod
    def base(cls, alias: str, table_name: str) -> "RelationRef":
        """A reference to a base table bound to ``alias``."""
        return cls(alias=alias, table_name=table_name,
                   covered_aliases=frozenset({alias}), is_temp=False)

    @classmethod
    def temp(cls, temp_name: str, covered_aliases: frozenset[str]) -> "RelationRef":
        """A reference to a materialized temporary table."""
        return cls(alias=temp_name, table_name=temp_name,
                   covered_aliases=frozenset(covered_aliases), is_temp=True)

    def covers(self, alias: str) -> bool:
        """True if this relation provides the columns of ``alias``."""
        return alias in self.covered_aliases

    def storage_name(self, ref: ColumnRef) -> str:
        """The name ``ref`` is stored under in this relation's table:
        temporaries keep qualified names (``t.id``), base tables bare ones."""
        return ref.qualified if self.is_temp else ref.column

    def __str__(self) -> str:
        if self.is_temp:
            return f"{self.alias}[{','.join(sorted(self.covered_aliases))}]"
        return f"{self.table_name} AS {self.alias}"


def _internal_to(pred: Predicate | JoinPredicate, covered: frozenset[str]) -> bool:
    """True if every alias ``pred`` reads lies in ``covered``.

    Such a predicate was applied when the temporary covering ``covered`` was
    materialized.  This is the one test :meth:`SPJQuery.substitute` drops
    predicates by and :meth:`SPJQuery.columns_read_after` keeps columns by.
    """
    return all(alias in covered for alias in pred.aliases())


@dataclass(frozen=True)
class AggregateSpec:
    """A scalar or grouped aggregate in the projection list."""

    func: str
    column: ColumnRef | None
    output_name: str

    _FUNCS = {"min", "max", "count", "sum", "avg"}

    def __post_init__(self) -> None:
        if self.func not in self._FUNCS:
            raise ValueError(f"unsupported aggregate function {self.func!r}")
        if self.column is None and self.func != "count":
            raise ValueError("only COUNT may omit its input column")


@dataclass(frozen=True)
class SPJQuery:
    """An SPJ query in the paper's normal form.

    The query's result is the selection of all ``filters`` and
    ``join_predicates`` applied to the Cartesian product of ``relations``,
    projected onto ``projections`` (or fed into scalar ``aggregates`` such as
    the ``MIN(...)`` outputs every JOB query computes).
    """

    name: str
    relations: tuple[RelationRef, ...]
    filters: tuple[Predicate, ...] = ()
    join_predicates: tuple[JoinPredicate, ...] = ()
    projections: tuple[ColumnRef, ...] = ()
    aggregates: tuple[AggregateSpec, ...] = ()

    def __post_init__(self) -> None:
        self._validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        aliases = [r.alias for r in self.relations]
        if len(aliases) != len(set(aliases)):
            raise ValueError(f"duplicate relation aliases in query {self.name!r}")
        covered = self.covered_aliases()
        for pred in self.filters:
            for alias in pred.aliases():
                if alias not in covered:
                    raise ValueError(
                        f"filter {pred!r} references unknown alias {alias!r}")
        for pred in self.join_predicates:
            for alias in pred.aliases():
                if alias not in covered:
                    raise ValueError(
                        f"join predicate {pred} references unknown alias {alias!r}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def covered_aliases(self) -> frozenset[str]:
        """All original aliases covered by the query's relations."""
        result: set[str] = set()
        for rel in self.relations:
            result.update(rel.covered_aliases)
        return frozenset(result)

    @property
    def relation_aliases(self) -> tuple[str, ...]:
        """Aliases of the relations (base alias or temp-table name)."""
        return tuple(r.alias for r in self.relations)

    def relation(self, alias: str) -> RelationRef:
        """The relation bound to ``alias`` (exact alias match)."""
        for rel in self.relations:
            if rel.alias == alias:
                return rel
        raise KeyError(f"query {self.name!r} has no relation aliased {alias!r}")

    def relation_covering(self, original_alias: str) -> RelationRef:
        """The relation that provides the columns of ``original_alias``."""
        for rel in self.relations:
            if rel.covers(original_alias):
                return rel
        raise KeyError(
            f"query {self.name!r} has no relation covering alias {original_alias!r}")

    def filters_for(self, relation: RelationRef) -> tuple[Predicate, ...]:
        """All filter predicates fully answered by ``relation``."""
        return tuple(
            pred for pred in self.filters
            if all(alias in relation.covered_aliases for alias in pred.aliases()))

    def output_columns(self) -> tuple[ColumnRef, ...]:
        """All column references appearing in the output (projection/aggregates)."""
        refs = list(self.projections)
        refs.extend(spec.column for spec in self.aggregates if spec.column is not None)
        return tuple(refs)

    @property
    def num_joins(self) -> int:
        """Number of join predicates."""
        return len(self.join_predicates)

    def is_connected(self) -> bool:
        """True if the join graph over the relations is connected."""
        if len(self.relations) <= 1:
            return True
        adjacency: dict[str, set[str]] = {r.alias: set() for r in self.relations}
        for pred in self.join_predicates:
            left = self.relation_covering(pred.left.alias).alias
            right = self.relation_covering(pred.right.alias).alias
            if left != right:
                adjacency[left].add(right)
                adjacency[right].add(left)
        seen = {self.relations[0].alias}
        frontier = [self.relations[0].alias]
        while frontier:
            node = frontier.pop()
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self.relations)

    # ------------------------------------------------------------------
    # Rewriting (used by the re-optimization loops)
    # ------------------------------------------------------------------
    def substitute(self, temp: RelationRef) -> "SPJQuery":
        """Replace every relation covered by ``temp`` with ``temp`` itself.

        This is the "Replace overlap" step of the QuerySplit workflow: after a
        subquery over relations *S* has been executed and materialized, every
        remaining subquery sharing a relation with *S* swaps those shared
        relations for the temporary table.  Filter and join predicates that
        are now internal to the temporary (both sides covered by it) have
        already been applied during materialization and are dropped.
        """
        replaced = [r for r in self.relations if r.covered_aliases & temp.covered_aliases]
        if not replaced:
            return self
        kept = [r for r in self.relations if not (r.covered_aliases & temp.covered_aliases)]
        # The temporary covers everything the replaced relations covered (it
        # may cover more aliases than this query uses; that is fine).  If it
        # does not, a remaining predicate reads a lost alias and the new
        # query's validation raises.
        new_relations = tuple(kept) + (temp,)
        new_filters = tuple(
            pred for pred in self.filters
            if not _internal_to(pred, temp.covered_aliases))
        new_joins = tuple(
            pred for pred in self.join_predicates
            if not _internal_to(pred, temp.covered_aliases))
        return replace(self, relations=new_relations, filters=new_filters,
                       join_predicates=new_joins)

    def columns_read_after(self, covered: frozenset[str]) -> tuple[ColumnRef, ...]:
        """Columns of ``covered`` a plan can still ask about once a temporary
        covering ``covered`` is substituted.

        The estimator reads column statistics only for columns of the
        planned query's predicates, and :meth:`substitute` drops every
        predicate internal to the temporary -- so these are the only columns
        of that temporary whose statistics anything can read.  Ordered and
        de-duplicated: join predicates first, then filters, each in query
        order, so the result never depends on set iteration order.
        """
        refs: list[ColumnRef] = []
        for pred in self.join_predicates:
            if not _internal_to(pred, covered):
                refs.extend(ref for ref in (pred.left, pred.right)
                            if ref.alias in covered)
        for pred in self.filters:
            if not _internal_to(pred, covered):
                refs.extend(ref for ref in pred.column_refs()
                            if ref.alias in covered)
        return tuple(dict.fromkeys(refs))

    def with_projections(self, projections: tuple[ColumnRef, ...]) -> "SPJQuery":
        """Return a copy with a different projection list (no aggregates)."""
        return replace(self, projections=projections, aggregates=())

    def __str__(self) -> str:
        rels = ", ".join(str(r) for r in self.relations)
        return f"SPJQuery({self.name}: {rels}; {len(self.join_predicates)} joins)"


@dataclass(frozen=True)
class RelationMasks:
    """Bitmask view of one SPJ query's relations and predicates.

    Bit ``i`` of a mask stands for ``query.relations[i]``.  The optimizer
    builds this once per planned query so that "which filters and join
    predicates lie inside this relation subset" is a few integer tests
    instead of a walk over alias sets.
    """

    query_name: str
    relations: tuple[RelationRef, ...]
    #: ``(mask of the relations a filter reads, filter)``, in
    #: ``query.filters`` order.
    filters: tuple[tuple[int, Predicate], ...]
    #: ``(two-bit mask of the relations joined, predicate)``, in
    #: ``query.join_predicates`` order.  Predicates with both sides inside
    #: one relation are absent: they were applied when that temporary was
    #: materialized.
    joins: tuple[tuple[int, JoinPredicate], ...]
    #: Per relation, the filters it answers alone (``subset(1 << i)``'s
    #: filters, which are ``query.filters_for(relations[i])``), in
    #: ``query.filters`` order.
    relation_filters: tuple[tuple[Predicate, ...], ...]
    #: Original alias -> the bit of the relation covering it.
    bits: dict[str, int] = field(compare=False)

    @classmethod
    def of(cls, query: SPJQuery) -> "RelationMasks":
        """Index ``query`` by relation position."""
        bit_of: dict[str, int] = {}
        for i, relation in enumerate(query.relations):
            for alias in relation.covered_aliases:
                bit_of[alias] = 1 << i
        filters = []
        own: list[list[Predicate]] = [[] for _ in query.relations]
        for pred in query.filters:
            mask = 0
            for alias in pred.aliases():
                mask |= bit_of[alias]
            filters.append((mask, pred))
            if not mask:  # reads no relation: every relation answers it
                for own_filters in own:
                    own_filters.append(pred)
            elif not mask & (mask - 1):  # reads one relation
                own[mask.bit_length() - 1].append(pred)
        joins = []
        for pred in query.join_predicates:
            left, right = bit_of[pred.left.alias], bit_of[pred.right.alias]
            if left != right:
                joins.append((left | right, pred))
        return cls(query.name, query.relations, tuple(filters), tuple(joins),
                   tuple(map(tuple, own)), bit_of)

    def subset(self, mask: int) -> tuple[tuple[RelationRef, ...],
                                         tuple[Predicate, ...],
                                         tuple[JoinPredicate, ...]]:
        """Relations of ``mask`` with the filters and joins internal to them."""
        return (
            tuple(rel for i, rel in enumerate(self.relations) if mask >> i & 1),
            tuple(pred for m, pred in self.filters if m & mask == m),
            tuple(pred for m, pred in self.joins if m & mask == m),
        )


# ----------------------------------------------------------------------
# Non-SPJ query trees (Section 3.3)
# ----------------------------------------------------------------------
class QueryPlanNode:
    """Base class for nodes of a non-SPJ query tree."""

    def children(self) -> tuple["QueryPlanNode", ...]:
        """Child nodes."""
        raise NotImplementedError

    def spj_leaves(self) -> tuple[SPJQuery, ...]:
        """All SPJ queries at the leaves of this subtree."""
        leaves: list[SPJQuery] = []
        stack: list[QueryPlanNode] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, SPJNode):
                leaves.append(node.query)
            else:
                stack.extend(node.children())
        return tuple(leaves)


@dataclass(frozen=True)
class SPJNode(QueryPlanNode):
    """Leaf node wrapping an SPJ query."""

    query: SPJQuery

    def children(self) -> tuple[QueryPlanNode, ...]:
        return ()


@dataclass(frozen=True)
class AggregateNode(QueryPlanNode):
    """GROUP BY / scalar aggregation over a child subtree."""

    child: QueryPlanNode
    group_by: tuple[ColumnRef, ...]
    aggregates: tuple[AggregateSpec, ...]

    def children(self) -> tuple[QueryPlanNode, ...]:
        return (self.child,)


@dataclass(frozen=True)
class UnionNode(QueryPlanNode):
    """UNION ALL of several child subtrees with identical output shapes."""

    inputs: tuple[QueryPlanNode, ...]

    def children(self) -> tuple[QueryPlanNode, ...]:
        return self.inputs


@dataclass(frozen=True)
class Query:
    """A top-level query: either pure SPJ or a non-SPJ tree."""

    name: str
    root: QueryPlanNode
    metadata: dict = field(default_factory=dict, compare=False, hash=False)

    @classmethod
    def from_spj(cls, spj: SPJQuery, **metadata) -> "Query":
        """Wrap a plain SPJ query."""
        return cls(name=spj.name, root=SPJNode(spj), metadata=dict(metadata))

    @property
    def is_spj(self) -> bool:
        """True if the query is a single SPJ block."""
        return isinstance(self.root, SPJNode)

    @property
    def spj(self) -> SPJQuery:
        """The SPJ block of a pure-SPJ query (raises otherwise)."""
        if not isinstance(self.root, SPJNode):
            raise TypeError(f"query {self.name!r} is not a pure SPJ query")
        return self.root.query

    @property
    def num_relations(self) -> int:
        """Total number of base relations across all SPJ leaves."""
        return sum(len(leaf.relations) for leaf in self.root.spj_leaves())
