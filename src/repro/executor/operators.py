"""The physical operator pipeline.

Each class evaluates one :class:`~repro.plan.physical.PlanNode` kind over
late-materialized :class:`~repro.executor.chunk.Chunk` inputs:

* :class:`Scan`        -- filtered scan producing a row-id selection vector;
* :class:`HashJoin`    -- equi-join on gathered key columns (also evaluates
  predicate-carrying NL nodes: the equi-join kernel in
  :mod:`repro.executor.joins` serves both);
* :class:`IndexNLJoin` -- index nested-loop join probing a sorted index,
  then narrowing its matches to the probed inner rows that pass the inner
  filters and every further ``=`` predicate;
* :class:`CrossProduct`-- predicate-less join, under the same cap as every
  other join;
* :class:`Aggregate`   -- plan-root aggregation, the point where the
  aggregated columns are finally gathered (encoded strings as codes).

Scans and index joins filter through :func:`filter_rows`, over the stored
columns (codes for encoded strings): no filter is evaluated on decoded
values.  A join operator only finds its
:class:`~repro.storage.index.Matches` (``matches``); the executor merges
the inputs' row-id vectors with them
(:func:`~repro.executor.chunk.merge_chunks`), or a root
:class:`Aggregate` reads them unmerged.  Operators never copy payload
columns between them -- they pass chunks whose sources are row-id vectors
into the stored tables.  The
:class:`~repro.executor.executor.Executor` walks the plan, invokes the
matching operator per node, and handles caching/timing around them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.executor.aggregates import (
    group_aggregate,
    weighted_aggregate,
    weighted_exact,
)
from repro.executor.chunk import Chunk, MaterializationStats, TableSource
from repro.executor.joins import check_match_count, multi_key_matches
from repro.executor.kernels import PredicateCompiler
from repro.plan.expressions import ColumnRef, JoinPredicate
from repro.plan.logical import AggregateSpec, RelationRef
from repro.plan.physical import JoinNode, PlanNode, ScanNode
from repro.storage.dictionary import null_mask, translate_filters
from repro.storage.database import Database
from repro.storage.index import Matches
from repro.storage.table import DataTable

class ExecutionError(RuntimeError):
    """Raised when a plan cannot be executed (e.g. an INDEX_NL join over a
    column without an index)."""


@dataclass
class ExecContext:
    """Per-execution state threaded through the operator pipeline."""

    database: Database
    stats: MaterializationStats
    operator_times: dict[str, float] = field(default_factory=dict)
    #: Fused-kernel accounting: candidate rows each compiled predicate
    #: actually evaluated over, and how many predicates ran fused.
    fused_rows_touched: int = 0
    fused_predicates: int = 0
    #: Predicates rewritten into dictionary code space by filtered reads.
    dict_predicates: int = 0


class Operator:
    """Base class: one physical operator bound to its plan node."""

    name = "Operator"

    def __init__(self, node: PlanNode):
        self.node = node

    @property
    def label(self) -> str:
        """Stable display label (operator kind + covered aliases)."""
        return f"{self.name}[{'+'.join(sorted(self.node.covered_aliases()))}]"


def filter_rows(ctx: ExecContext, relation: RelationRef, table: DataTable,
                filters, rows: np.ndarray | None = None) -> np.ndarray | None:
    """Filter a stored relation: the executor's one filter evaluator.

    Reads every row of ``table``, or only the row ids in ``rows`` (an
    index probe's matches).  Returns the ascending positions of the rows
    that satisfy ``filters`` -- row ids of ``table``, or positions into
    ``rows`` -- or ``None`` when no conjunct is left to apply (every row
    survives, nothing materialized).

    Two rewrites happen before any data is read.  Predicates over
    dictionary-encoded string columns are translated into code space
    (:func:`~repro.storage.dictionary.translate_filters`), which can decide
    a conjunct outright: a provably unsatisfiable conjunct returns the
    empty selection without reading, a tautological one is dropped.  And
    the surviving conjunction is compiled into a single
    selectivity-ordered pass (:class:`PredicateCompiler`) instead of one
    pass per predicate.
    """
    filters, impossible, translated = translate_filters(
        filters, table, relation.storage_name)
    ctx.dict_predicates += translated
    if impossible:
        return np.empty(0, dtype=np.int64)
    if not filters:
        return None
    ctx.fused_predicates += len(filters)

    def column(ref):
        stored = table.column(relation.storage_name(ref))
        return stored if rows is None else stored[rows]

    return PredicateCompiler(filters).evaluate_range(
        column, table.num_rows if rows is None else len(rows), ctx)


class Scan(Operator):
    """Sequential scan with pushed-down filters -> row-id selection vector
    (:func:`filter_rows` over every row of the table)."""

    name = "Scan"

    def execute(self, ctx: ExecContext) -> Chunk:
        node: ScanNode = self.node  # type: ignore[assignment]
        relation = node.relation
        table = ctx.database.table(relation.table_name)
        source = TableSource(
            relation, table, filter_rows(ctx, relation, table, node.filters))
        return Chunk((source,), source.num_rows)


def join_keys(ctx: ExecContext, left: Chunk, right: Chunk,
              predicates: tuple[JoinPredicate, ...]
              ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gather the key values of ``predicates`` from both sides of a join,
    one column per predicate, each from the side that covers it."""
    left_keys, right_keys = [], []
    for pred in predicates:
        if left.covers(pred.left.alias):
            left_ref, right_ref = pred.left, pred.right
        else:
            left_ref, right_ref = pred.right, pred.left
        left_keys.append(left.column(left_ref, ctx.stats))
        right_keys.append(right.column(right_ref, ctx.stats))
    return left_keys, right_keys


class HashJoin(Operator):
    """Equi-join: gather the key columns and match them."""

    name = "HashJoin"

    def matches(self, ctx: ExecContext, left: Chunk, right: Chunk) -> Matches:
        return multi_key_matches(*join_keys(ctx, left, right,
                                            self.node.predicates))


class IndexNLJoin(Operator):
    """Index nested-loop join: probe the inner base table's sorted index."""

    name = "IndexNLJoin"

    def __init__(self, node: JoinNode):
        super().__init__(node)
        #: The predicate on the index column (the first one), whose other
        #: side is the probe key, and the predicates besides it.
        self.probe = next((pred for pred in node.predicates
                           if node.index_column in (pred.left, pred.right)),
                          None)
        self.residuals = tuple(pred for pred in node.predicates
                               if pred is not self.probe)

    def matches(self, ctx: ExecContext, left: Chunk) -> tuple[Matches, Chunk]:
        """The join's matches and its inner input: every row of the inner
        table, which the matches' build side indexes."""
        node: JoinNode = self.node  # type: ignore[assignment]
        inner_scan: ScanNode = node.right  # type: ignore[assignment]
        relation = inner_scan.relation
        table = ctx.database.table(relation.table_name)
        index_column = node.index_column
        index = ctx.database.index(relation.table_name, index_column.column)
        if index is None:
            raise ExecutionError(
                f"no index on {relation.table_name}.{index_column.column} "
                f"for INDEX_NL join")

        if self.probe is None:
            raise ExecutionError("INDEX_NL join has no predicate on its index column")
        # The outer key is the other side of the predicate on the index column.
        outer_ref = self.probe.other(index_column.alias)
        inner = Chunk((TableSource(relation, table),), table.num_rows)
        matches = index.matches(left.column(outer_ref, ctx.stats))
        if inner_scan.filters:
            # The inner rows are expanded to filter them; the probe side
            # stays unexpanded until a consumer (or a residual) asks for it.
            keep = filter_rows(ctx, relation, table, inner_scan.filters,
                               matches.row_ids())
            if keep is not None:
                matches = matches.select(keep)
        for pred in self.residuals:
            inner_ref = (pred.left if relation.covers(pred.left.alias)
                         else pred.right)
            inner_values = table.gather(inner_ref.column, matches.row_ids())
            equal = inner_values == left.column(
                pred.other(inner_ref.alias), ctx.stats)[matches.probe_positions()]
            if inner_values.dtype == object:  # NULL equals nothing, not even NULL
                equal &= ~null_mask(inner_values)
            matches = matches.select(np.flatnonzero(equal))
        return matches, inner


class CrossProduct(Operator):
    """Predicate-less join: the Cartesian product of two chunks."""

    name = "CrossProduct"

    def matches(self, ctx: ExecContext, left: Chunk, right: Chunk) -> Matches:
        total = left.num_rows * right.num_rows
        check_match_count(total)
        return Matches(
            total,
            lambda: np.repeat(np.arange(left.num_rows, dtype=np.int64),
                              right.num_rows),
            lambda: np.tile(np.arange(right.num_rows, dtype=np.int64),
                            left.num_rows))


class Aggregate:
    """Plan-root aggregation: gathers its inputs once (strings as codes)
    and hands them to the shared kernel in :mod:`repro.executor.aggregates`.

    A scalar aggregate whose every function :func:`weighted_exact` admits
    can instead read the root join's :class:`Matches` without merging them
    (:meth:`execute_matches`): each aggregated column is gathered at its own
    side's rows and folded with that side's weights.
    """

    name = "Aggregate"
    label = "Aggregate"

    def __init__(self, query_name: str, group_by: tuple[ColumnRef, ...],
                 aggregates: tuple[AggregateSpec, ...]):
        self.query_name = query_name
        self.group_by = group_by
        self.aggregates = aggregates
        #: The columns aggregation reads: group-by keys, then aggregated
        #: columns (``count(*)`` reads none).
        self.refs = tuple(dict.fromkeys(
            tuple(group_by) + tuple(spec.column for spec in aggregates
                                    if spec.column is not None)))

    def reads_matches(self, root: PlanNode, database: Database) -> bool:
        """True when this aggregate over ``root`` may take
        :meth:`execute_matches`: no GROUP BY, a join with predicates at the
        root, and an exact weighted form for every function over its
        column's stored type.  Decided from the plan and the column types,
        never a size."""
        if self.group_by or not isinstance(root, JoinNode) or not root.predicates:
            return False
        relations = root.leaf_relations()
        for spec in self.aggregates:
            if spec.column is None:
                continue
            relation = next(relation for relation in relations
                            if relation.covers(spec.column.alias))
            table = database.table(relation.table_name)
            name = relation.storage_name(spec.column)
            if not weighted_exact(spec.func, table.column(name).dtype,
                                  table.is_encoded(name)):
                return False
        return True

    def execute(self, ctx: ExecContext, chunk: Chunk) -> DataTable:
        start = time.perf_counter()
        table = group_aggregate(
            chunk.table(self.query_name, self.refs, ctx.stats),
            self.group_by, self.aggregates)
        ctx.operator_times[self.label] = time.perf_counter() - start
        return table

    def execute_matches(self, ctx: ExecContext, left: Chunk, right: Chunk,
                        matches: Matches) -> DataTable:
        """The scalar aggregates over the join of ``left`` and ``right``
        whose matches are ``matches``, read from the weights of each
        aggregated column's own side; the matches are never merged."""
        start = time.perf_counter()
        weights: dict[bool, np.ndarray] = {}  # per side: is it the left one
        inputs = {}
        for ref in self.refs:
            on_left = left.covers(ref.alias)
            if on_left not in weights:
                weights[on_left] = (matches.probe_weights(left.num_rows)
                                    if on_left else
                                    matches.build_weights(right.num_rows))
            side = left if on_left else right
            values, dictionary = side.source_for(ref.alias).gather_encoded(
                ref, ctx.stats)
            inputs[ref.qualified] = (values, weights[on_left], dictionary)
        table = weighted_aggregate(matches.total, inputs, self.aggregates)
        ctx.operator_times[self.label] = time.perf_counter() - start
        return table
