"""The physical operator pipeline.

Each class evaluates one :class:`~repro.plan.physical.PlanNode` kind over
late-materialized :class:`~repro.executor.chunk.Chunk` inputs:

* :class:`Scan`        -- filtered scan producing a row-id selection vector;
* :class:`HashJoin`    -- equi-join on gathered key columns (also evaluates
  predicate-carrying NL nodes: the equi-join kernel in
  :mod:`repro.executor.joins` serves both);
* :class:`IndexNLJoin` -- index nested-loop join probing a sorted index;
* :class:`CrossProduct`-- predicate-less join (guarded Cartesian product);
* :class:`Aggregate`   -- plan-root aggregation, the point where the
  aggregated columns are finally gathered (encoded strings as codes).

Operators never copy payload columns between them -- they pass chunks whose
sources are row-id vectors into the stored tables.  The
:class:`~repro.executor.executor.Executor` walks the plan, invokes the
matching operator per node, and handles caching/timing around them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.executor.aggregates import group_aggregate
from repro.executor.chunk import (
    Chunk,
    MaterializationStats,
    TableSource,
    merge_chunks,
)
from repro.executor.joins import multi_key_equi_join
from repro.executor.kernels import PredicateCompiler
from repro.plan.expressions import ColumnRef, JoinPredicate
from repro.storage.dictionary import translate_filters
from repro.plan.physical import JoinNode, PhysicalPlan, PlanNode, ScanNode
from repro.storage.database import Database
from repro.storage.table import DataTable

#: Guard against accidental cross-product explosions in the executor.
MAX_CROSS_PRODUCT_ROWS = 50_000_000


class ExecutionError(RuntimeError):
    """Raised when a plan cannot be executed (e.g. a runaway cross product)."""


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
    #: Predicates rewritten into dictionary code space by scans.
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


class Scan(Operator):
    """Sequential scan with pushed-down filters -> row-id selection vector.

    The compiled conjunction runs once over the full stored columns.  Two
    hot-path rewrites happen before any data is read.  Predicates over
    dictionary-encoded string columns are translated into code space
    (:func:`~repro.storage.dictionary.translate_filters`), which can decide
    a conjunct outright: a provably unsatisfiable conjunct returns the
    empty selection without scanning, a tautological one is dropped.  And
    the surviving conjunction is compiled into a single
    selectivity-ordered pass (:class:`PredicateCompiler`) instead of one
    full-slice pass per predicate.
    """

    name = "Scan"

    def execute(self, ctx: ExecContext) -> Chunk:
        node: ScanNode = self.node  # type: ignore[assignment]
        relation = node.relation
        table = ctx.database.table(relation.table_name)

        def storage_name(ref: ColumnRef) -> str:
            return ref.qualified if relation.is_temp else ref.column

        filters, impossible, translated = translate_filters(
            node.filters, table, storage_name)
        ctx.dict_predicates += translated
        if impossible:
            # The dictionary proved a conjunct unsatisfiable: empty scan.
            return Chunk((TableSource(relation, table,
                                      np.empty(0, dtype=np.int64)),))
        if not filters:
            # No filters, or every conjunct was tautological: identity
            # selection, no vector materialized.
            return Chunk((TableSource(relation, table, None),))

        kernel = PredicateCompiler(filters)
        ctx.fused_predicates += len(filters)
        row_ids = kernel.evaluate_range(
            lambda ref: table.column(storage_name(ref)), table.num_rows, ctx)
        return Chunk((TableSource(relation, table, row_ids),))


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


def hash_join(ctx: ExecContext, left: Chunk, right: Chunk,
              predicates: tuple[JoinPredicate, ...]) -> Chunk:
    """Equi-join two chunks on ``predicates`` (the body of :class:`HashJoin`,
    which the true-cardinality oracle calls without a plan node)."""
    left_idx, right_idx = multi_key_equi_join(*join_keys(ctx, left, right,
                                                         predicates))
    return merge_chunks(left, left_idx, right, right_idx, ctx.stats)


class HashJoin(Operator):
    """Equi-join: gather the key columns, match, merge the row-id vectors."""

    name = "HashJoin"

    def execute(self, ctx: ExecContext, left: Chunk, right: Chunk) -> Chunk:
        return hash_join(ctx, left, right, self.node.predicates)


class IndexNLJoin(Operator):
    """Index nested-loop join: probe the inner base table's sorted index."""

    name = "IndexNLJoin"

    def execute(self, ctx: ExecContext, left: Chunk) -> Chunk:
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

        # The outer key is the other side of the predicate on the index column.
        probe_pred = None
        for pred in node.predicates:
            if index_column in (pred.left, pred.right):
                probe_pred = pred
                break
        if probe_pred is None:
            raise ExecutionError("INDEX_NL join has no predicate on its index column")
        outer_ref = probe_pred.other(index_column.alias)
        outer_keys = left.column(outer_ref, ctx.stats)

        probe_positions, inner_rows = index.lookup_batch(outer_keys)

        def resolve(ref: ColumnRef) -> np.ndarray:
            return table.gather(ref.column, inner_rows)

        # Apply the inner relation's residual filters after the index probe.
        mask = None
        for pred in inner_scan.filters:
            pred_mask = pred.evaluate(resolve)
            mask = pred_mask if mask is None else (mask & pred_mask)
        # Apply any additional join predicates between the two sides.
        for pred in node.predicates:
            if pred is probe_pred:
                continue
            inner_ref = (pred.left if relation.covers(pred.left.alias) else pred.right)
            outer_side = pred.other(inner_ref.alias)
            pred_mask = (table.gather(inner_ref.column, inner_rows)
                         == left.column(outer_side, ctx.stats)[probe_positions])
            mask = pred_mask if mask is None else (mask & pred_mask)
        if mask is not None:
            probe_positions = probe_positions[mask]
            inner_rows = inner_rows[mask]

        sources = tuple(source.take(probe_positions, ctx.stats)
                        for source in left.sources)
        sources += (TableSource(relation, table, inner_rows),)
        return Chunk(sources, len(probe_positions))


class CrossProduct(Operator):
    """Predicate-less join: guarded Cartesian product of two chunks."""

    name = "CrossProduct"

    def execute(self, ctx: ExecContext, left: Chunk, right: Chunk) -> Chunk:
        total = left.num_rows * right.num_rows
        if total > MAX_CROSS_PRODUCT_ROWS:
            raise ExecutionError(
                f"cross product of {left.num_rows} x {right.num_rows} rows "
                f"exceeds the executor's safety limit")
        left_idx = np.repeat(np.arange(left.num_rows, dtype=np.int64),
                             right.num_rows)
        right_idx = np.tile(np.arange(right.num_rows, dtype=np.int64),
                            left.num_rows)
        return merge_chunks(left, left_idx, right, right_idx, ctx.stats)


class Aggregate:
    """Plan-root aggregation: gathers its inputs once (strings as codes)
    and hands them to the shared kernel in :mod:`repro.executor.aggregates`."""

    name = "Aggregate"
    label = "Aggregate"

    def __init__(self, plan: PhysicalPlan):
        self.plan = plan

    def execute(self, ctx: ExecContext, chunk: Chunk) -> DataTable:
        plan = self.plan
        refs = tuple(dict.fromkeys(
            tuple(plan.group_by)
            + tuple(spec.column for spec in plan.aggregates
                    if spec.column is not None)))
        start = time.perf_counter()
        table = group_aggregate(chunk.table(plan.query_name, refs, ctx.stats),
                                plan.group_by, plan.aggregates,
                                num_rows=chunk.num_rows)
        ctx.operator_times[self.label] = time.perf_counter() - start
        return table
