"""The physical operator pipeline.

Each class evaluates one :class:`~repro.plan.physical.PlanNode` kind over
late-materialized :class:`~repro.executor.chunk.Chunk` inputs:

* :class:`Scan`        -- filtered scan producing a row-id selection vector;
* :class:`HashJoin`    -- equi-join on gathered key columns (also evaluates
  MERGE and predicate-carrying NL nodes: the equi-join kernel in
  :mod:`repro.executor.joins` serves all of them);
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
from repro.plan.expressions import ColumnRef
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
    #: Zone-map pruning accounting: storage blocks considered by filtered
    #: scans over block-partitioned tables, and how many the zone maps
    #: eliminated without reading any column data.
    scan_blocks_total: int = 0
    scan_blocks_pruned: int = 0
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

    Over a block-partitioned table the scan is two-phase: the pushed-down
    conjunction is first tested against every block's zone maps
    (:mod:`repro.storage.zonemaps`), then the predicates are evaluated
    *only inside the surviving blocks* (adjacent survivors are coalesced
    into contiguous runs so each predicate still evaluates over large
    slices).  Pruning is conservative, so the emitted row-id vector is
    bit-identical to a full scan's; tables without zone maps take the
    original full-column path.

    Two hot-path rewrites happen before any data is read.  Predicates over
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
        zone_maps = table.zone_maps
        if impossible:
            # The dictionary proved a conjunct unsatisfiable: empty scan,
            # every block counts as pruned.
            if zone_maps is not None:
                ctx.scan_blocks_total += zone_maps.num_blocks
                ctx.scan_blocks_pruned += zone_maps.num_blocks
            return Chunk((TableSource(relation, table,
                                      np.empty(0, dtype=np.int64)),))
        if not filters:
            # No filters, or every conjunct was tautological: identity
            # selection, no vector materialized.
            return Chunk((TableSource(relation, table, None),))

        kernel = PredicateCompiler(filters)
        ctx.fused_predicates += len(filters)
        if zone_maps is None or zone_maps.num_blocks == 0:
            ranges = [(0, table.num_rows)] if table.num_rows else []
        else:
            candidates = zone_maps.candidate_blocks(filters, storage_name)
            ctx.scan_blocks_total += zone_maps.num_blocks
            ctx.scan_blocks_pruned += int(zone_maps.num_blocks
                                          - candidates.sum())
            ranges = [(first * zone_maps.block_size,
                       min(last * zone_maps.block_size, table.num_rows))
                      for first, last in _block_runs(candidates)]
        parts = [self._filter_range(table, kernel, storage_name,
                                    start, stop, ctx)
                 for start, stop in ranges]
        if not parts:
            row_ids = np.empty(0, dtype=np.int64)
        else:
            row_ids = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return Chunk((TableSource(relation, table, row_ids),))

    @staticmethod
    def _filter_range(table: DataTable, kernel: PredicateCompiler,
                      storage_name, start: int, stop: int,
                      ctx: ExecContext) -> np.ndarray:
        """Evaluate the compiled conjunction over rows ``[start, stop)``."""

        def resolve(ref: ColumnRef) -> np.ndarray:
            column = table.column(storage_name(ref))
            return column if start == 0 and stop == len(column) \
                else column[start:stop]

        row_ids = kernel.evaluate_range(resolve, stop - start, ctx)
        return row_ids + start if start else row_ids


def _block_runs(candidates: np.ndarray) -> list[tuple[int, int]]:
    """Coalesce a surviving-block mask into ``[first, last)`` block runs."""
    boundaries = np.diff(candidates.astype(np.int8))
    starts = list(np.nonzero(boundaries == 1)[0] + 1)
    stops = list(np.nonzero(boundaries == -1)[0] + 1)
    if len(candidates) and candidates[0]:
        starts.insert(0, 0)
    if len(candidates) and candidates[-1]:
        stops.append(len(candidates))
    return list(zip(starts, stops))


class HashJoin(Operator):
    """Equi-join: gather the key columns, match, merge the row-id vectors."""

    name = "HashJoin"

    def execute(self, ctx: ExecContext, left: Chunk, right: Chunk) -> Chunk:
        node: JoinNode = self.node  # type: ignore[assignment]
        left_aliases = node.left.covered_aliases()
        left_keys, right_keys = [], []
        for pred in node.predicates:
            if pred.left.alias in left_aliases:
                left_ref, right_ref = pred.left, pred.right
            else:
                left_ref, right_ref = pred.right, pred.left
            left_keys.append(left.column(left_ref, ctx.stats))
            right_keys.append(right.column(right_ref, ctx.stats))
        left_idx, right_idx = multi_key_equi_join(left_keys, right_keys)
        return merge_chunks(left, left_idx, right, right_idx, ctx.stats)


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
