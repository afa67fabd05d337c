"""The physical operator pipeline.

Each class evaluates one :class:`~repro.plan.physical.PlanNode` kind over
late-materialized :class:`~repro.executor.chunk.Chunk` inputs:

* :class:`Scan`        -- filtered scan producing a row-id selection vector;
* :class:`HashJoin`    -- equi-join on gathered key columns (also evaluates
  MERGE and predicate-carrying NL nodes: the sort/searchsorted kernel in
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
from repro.executor.joins import (
    MAX_JOIN_RESULT_ROWS,
    JoinOverflowError,
    ProbeSide,
    combine_key_pair,
    multi_key_equi_join,
    probe_range,
)
from repro.executor.kernels import PredicateCompiler
from repro.executor.morsels import MorselCounters, MorselScheduler
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
    #: Every column the plan (outputs, join keys, extras) may ever gather.
    needed: frozenset[ColumnRef]
    #: Eager compatibility mode: materialize needed columns at every operator
    #: (the pre-chunk behaviour, kept for the materialization benchmark).
    eager: bool = False
    #: Fused predicate kernels: evaluate a scan's conjunction in one
    #: selectivity-ordered pass (off = the naive per-predicate loop).
    fused: bool = True
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
    #: Semijoin pushdown accounting: filters pushed into probe scans, and
    #: probe rows they eliminated before the hash probe.
    semijoin_filters: int = 0
    semijoin_pruned_rows: int = 0
    #: Intra-query parallelism: the shared morsel worker pool (``None``
    #: runs everything sequentially) and the cooperative per-query
    #: deadline (``time.perf_counter`` seconds) the fan-out checks
    #: between morsel waves.
    morsels: MorselScheduler | None = None
    deadline: float | None = None
    #: Morsel accounting: tasks dispatched to the pool, and base-table
    #: rows scanned through the parallel filter path.  Worker threads
    #: never touch these -- per-morsel results are merged by the
    #: coordinating thread (see :mod:`repro.executor.morsels`).
    morsels_total: int = 0
    parallel_scan_rows: int = 0


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
    with ``ctx.fused`` the surviving conjunction is compiled into a
    single selectivity-ordered pass (:class:`PredicateCompiler`) instead
    of one full-slice pass per predicate.

    ``extra_filters`` carries synthetic predicates pushed down by the
    executor (semijoin filters from a parent hash join); they never come
    from the plan node, so plan signatures and costing are unaffected.
    """

    name = "Scan"

    def execute(self, ctx: ExecContext, extra_filters=()) -> Chunk:
        node: ScanNode = self.node  # type: ignore[assignment]
        relation = node.relation
        table = ctx.database.table(relation.table_name)

        def storage_name(ref: ColumnRef) -> str:
            return ref.qualified if relation.is_temp else ref.column

        filters = tuple(node.filters) + tuple(extra_filters)
        if not filters:
            # Identity selection: no vector materialized.  Mutated tables
            # with deleted rows select their live rows explicitly instead
            # (the valid-row mask is the single source of truth).
            return Chunk((TableSource(relation, table,
                                      table.valid_row_ids()
                                      if table.has_deletes else None),))

        filters, impossible, translated = translate_filters(
            filters, table, storage_name)
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
            # Every conjunct was tautological: identity selection.
            return Chunk((TableSource(relation, table,
                                      table.valid_row_ids()
                                      if table.has_deletes else None),))

        kernel = None
        if ctx.fused:
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
        row_ids = self._filter_ranges(table, filters, storage_name,
                                      ranges, ctx, kernel)
        if table.has_deletes:
            # Deleted rows may still satisfy the filters (deletes never
            # rewrite blocks); drop them from the selection here so every
            # scan variant -- zone-pruned or not, fused or not -- returns
            # exactly the live matches.
            row_ids = row_ids[table.valid_mask[row_ids]]
        return Chunk((TableSource(relation, table, row_ids),))

    @staticmethod
    def _filter_range(table: DataTable, filters, storage_name,
                      start: int, stop: int, ctx: ExecContext | None = None,
                      kernel: PredicateCompiler | None = None) -> np.ndarray:
        """Evaluate the filter conjunction over rows ``[start, stop)``."""

        def resolve(ref: ColumnRef) -> np.ndarray:
            column = table.column(storage_name(ref))
            return column if start == 0 and stop == len(column) \
                else column[start:stop]

        if kernel is not None:
            row_ids = kernel.evaluate_range(resolve, stop - start, ctx)
        else:
            mask = filters[0].evaluate(resolve)
            for pred in filters[1:]:
                mask = mask & pred.evaluate(resolve)
            row_ids = np.nonzero(mask)[0].astype(np.int64, copy=False)
        return row_ids + start if start else row_ids

    @classmethod
    def _filter_ranges(cls, table: DataTable, filters, storage_name,
                       ranges: list[tuple[int, int]], ctx: ExecContext,
                       kernel: PredicateCompiler | None) -> np.ndarray:
        """Evaluate the conjunction over every ``[start, stop)`` range.

        The sequential path walks the ranges in order; with a morsel
        scheduler of more than one worker the ranges are split into
        morsels and fanned out, and the per-morsel results are merged in
        range order -- so both paths emit the same row ids in the same
        order (see :mod:`repro.executor.morsels` for the argument).
        """
        scheduler = ctx.morsels
        if scheduler is not None and scheduler.workers > 1:
            morsel_ranges = scheduler.split_ranges(ranges)
            if len(morsel_ranges) > 1:
                return cls._filter_parallel(table, filters, storage_name,
                                            morsel_ranges, ctx, kernel)
        parts = [cls._filter_range(table, filters, storage_name,
                                   start, stop, ctx, kernel)
                 for start, stop in ranges]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    @classmethod
    def _filter_parallel(cls, table: DataTable, filters, storage_name,
                         morsel_ranges: list[tuple[int, int]],
                         ctx: ExecContext,
                         kernel: PredicateCompiler | None) -> np.ndarray:
        """Fan the filter ranges out over the morsel pool and merge."""

        def make_task(start: int, stop: int):
            def task() -> tuple[np.ndarray, MorselCounters]:
                counters = MorselCounters()
                rows = cls._filter_range(table, filters, storage_name,
                                         start, stop, counters, kernel)
                return rows, counters
            return task

        results = ctx.morsels.run_ordered(
            [make_task(start, stop) for start, stop in morsel_ranges],
            deadline=ctx.deadline)
        ctx.morsels_total += len(results)
        ctx.parallel_scan_rows += sum(stop - start
                                      for start, stop in morsel_ranges)
        for _, counters in results:
            counters.merge_into(ctx)
        parts = [rows for rows, _ in results]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


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
        left_idx, right_idx = self._join_indices(ctx, left_keys, right_keys)
        return merge_chunks(left, left_idx, right, right_idx, ctx.stats)

    @staticmethod
    def _join_indices(ctx: ExecContext, left_keys: list[np.ndarray],
                      right_keys: list[np.ndarray]
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Match the key columns, morsel-parallel over the probe side.

        The build (right) side is sorted once into a shared read-only
        :class:`~repro.executor.joins.ProbeSide`; contiguous slices of
        the probe keys are matched concurrently and merged in slice
        order, which is bit-identical to the whole-input kernel.  Small
        probes (fewer than two morsels) take the sequential kernel
        directly.
        """
        scheduler = ctx.morsels
        n_probe = len(left_keys[0]) if left_keys else 0
        if (scheduler is None or scheduler.workers <= 1
                or not right_keys or len(right_keys[0]) == 0):
            return multi_key_equi_join(left_keys, right_keys)
        morsel_ranges = scheduler.split_ranges([(0, n_probe)])
        if len(morsel_ranges) <= 1:
            return multi_key_equi_join(left_keys, right_keys)
        if len(left_keys) > 1:
            probe_key, build_key = combine_key_pair(left_keys, right_keys)
        else:
            probe_key, build_key = left_keys[0], right_keys[0]
        side = ProbeSide(build_key)

        def make_task(start: int, stop: int):
            return lambda: probe_range(side, probe_key, start, stop)

        results = scheduler.run_ordered(
            [make_task(start, stop) for start, stop in morsel_ranges],
            deadline=ctx.deadline)
        ctx.morsels_total += len(results)
        total = sum(len(part_left) for part_left, _ in results)
        if total > MAX_JOIN_RESULT_ROWS:
            raise JoinOverflowError(
                f"equi-join would produce {total} rows "
                f"(cap {MAX_JOIN_RESULT_ROWS}); aborting the query")
        left_idx = np.concatenate([part for part, _ in results])
        right_idx = np.concatenate([part for _, part in results])
        return left_idx, right_idx


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
