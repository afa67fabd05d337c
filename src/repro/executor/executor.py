"""Physical plan execution (late-materialization engine).

The executor walks a :class:`repro.plan.physical.PhysicalPlan` bottom-up and
evaluates every node with the operator pipeline of
:mod:`repro.executor.operators`.  Intermediate results are
:class:`~repro.executor.chunk.Chunk` objects -- one base-table row-id vector
per input relation -- so joins only ever copy ``int64`` selection vectors.
Real columns are gathered from the stored tables exactly once: join keys
(as values) when a join needs them, and output/aggregate columns at the
plan root -- where dictionary-encoded strings stay codes, so the result
table, a temporary registered from it, and the aggregation kernel all work
on ``int32`` codes and only the caller's ``column_values`` / ``to_rows``
decodes.

Two caches sit around the pipeline:

* the per-plan ``cache`` argument (keyed by ``id(node)``) lets the
  plan-driven re-optimization baselines execute one physical plan
  incrementally, subtree by subtree, without recomputing finished subtrees;
* an optional engine-level :class:`~repro.executor.subplan_cache.SubplanCache`
  (keyed by the *canonical* subtree signature) shares executed subtrees
  across plans, queries, and whole re-optimization policies.

Every operator records its actual output cardinality and wall-clock time in
the plan node (``actual_rows`` / ``actual_time``), which is the runtime
feedback the re-optimization algorithms compare against the estimates; the
same per-operator times are returned in
:attr:`ExecutionResult.operator_times`.

See ARCHITECTURE.md for how this layer fits between storage and the
re-optimization drivers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.executor.aggregates import (  # noqa: F401  (re-exported)
    group_aggregate,
    union_all,
)
from repro.executor.chunk import (
    Chunk,
    MaterializationStats,
    compact,
    materialize_default,
)
from repro.executor.kernels import (
    MAX_BUILD_ROWS,
    MIN_PROBE_ROWS,
    build_semijoin_predicate,
)
from repro.executor.morsels import (  # noqa: F401  (re-exported)
    MorselCancelled,
    MorselScheduler,
)
from repro.executor.operators import (  # noqa: F401  (re-exported)
    MAX_CROSS_PRODUCT_ROWS,
    Aggregate,
    CrossProduct,
    ExecContext,
    ExecutionError,
    HashJoin,
    IndexNLJoin,
    Scan,
)
from repro.executor.subplan_cache import SubplanCache
from repro.plan.expressions import ColumnRef
from repro.plan.physical import JoinMethod, JoinNode, PhysicalPlan, PlanNode, ScanNode
from repro.storage.database import Database
from repro.storage.table import DataTable

__all__ = [
    "Executor", "ExecutionResult", "ExecutionError", "MAX_CROSS_PRODUCT_ROWS",
    "MorselCancelled", "MorselScheduler", "group_aggregate", "union_all",
]


@dataclass
class ExecutionResult:
    """Outcome of executing one physical plan."""

    table: DataTable
    join_rows: int
    wall_time: float
    #: Wall-clock time per operator (label -> inclusive subtree seconds),
    #: mirroring the ``actual_time`` recorded on each plan node.
    operator_times: dict[str, float] = field(default_factory=dict)
    #: Bytes of column data / selection vectors materialized while executing
    #: (the quantity the late-materialization refactor minimizes).
    materialized_bytes: int = 0
    #: Zone-map pruning accounting across every filtered scan of the plan:
    #: storage blocks considered, and blocks skipped without reading data.
    scan_blocks_total: int = 0
    scan_blocks_pruned: int = 0
    #: Fused-kernel accounting: candidate rows each compiled predicate
    #: actually evaluated over (the naive loop would touch
    #: ``rows * num_predicates``), and predicates that ran fused.
    fused_rows_touched: int = 0
    fused_predicates: int = 0
    #: Predicates scans rewrote into dictionary code space.
    dict_predicates: int = 0
    #: Semijoin pushdown: filters pushed into probe-side scans, and probe
    #: rows they eliminated before reaching the hash join.
    semijoin_filters: int = 0
    semijoin_pruned_rows: int = 0
    #: Morsel parallelism: tasks dispatched to the worker pool, the pool
    #: width the executor ran with, and base-table rows scanned through
    #: the parallel filter path (``workers=1`` leaves all three at their
    #: sequential values).
    morsels_total: int = 0
    morsel_workers: int = 1
    parallel_scan_rows: int = 0

    @property
    def scan_pruning_ratio(self) -> float:
        """Fraction of considered storage blocks the zone maps pruned."""
        if self.scan_blocks_total == 0:
            return 0.0
        return self.scan_blocks_pruned / self.scan_blocks_total

    @property
    def num_rows(self) -> int:
        """Rows in the final output."""
        return self.table.num_rows

    @property
    def memory_bytes(self) -> int:
        """Memory footprint of the final output."""
        return self.table.memory_bytes


class Executor:
    """Evaluates physical plans against a :class:`Database`.

    Parameters
    ----------
    database:
        The database to execute against.
    subplan_cache:
        Optional engine-level cache shared across plans and algorithms;
        executed subtrees are stored/looked up by canonical signature.
    materialization:
        ``"late"`` (default) keeps intermediates as row-id chunks;
        ``"eager"`` re-materializes every carried column at every operator,
        reproducing the old executor's behaviour for benchmarking.
    fused:
        Compile each scan's filter conjunction into a single
        selectivity-ordered pass (:mod:`repro.executor.kernels`); off
        restores the naive one-full-pass-per-predicate loop.
    semijoin:
        Push a membership filter over the build side's join keys into
        eligible probe-side base-table scans (exact key set or Bloom
        filter), so zone maps and the fused kernel drop probe rows before
        the hash probe.
    workers:
        Morsel-parallel intra-query execution: scans and hash-join
        probes fan out over a :class:`~repro.executor.morsels.MorselScheduler`
        thread pool of this width, with per-morsel results merged in
        range order (bit-identical to sequential).  ``1`` (the default)
        never creates a pool.
    morsel_scheduler:
        An externally owned scheduler to share across executors (the
        serving layer passes one pool to every worker so inter- and
        intra-query parallelism cannot oversubscribe); overrides
        ``workers``.
    """

    def __init__(self, database: Database,
                 subplan_cache: SubplanCache | None = None,
                 materialization: str = "late",
                 fused: bool = True,
                 semijoin: bool = True,
                 workers: int = 1,
                 morsel_scheduler: MorselScheduler | None = None):
        if materialization not in ("late", "eager"):
            raise ValueError(f"unknown materialization mode {materialization!r}")
        self.database = database
        self.subplan_cache = subplan_cache
        if subplan_cache is not None:
            subplan_cache.bind(database)
        self.materialization = materialization
        self.fused = bool(fused)
        self.semijoin = bool(semijoin)
        if morsel_scheduler is not None:
            self.morsels: MorselScheduler | None = morsel_scheduler
        elif workers > 1:
            self.morsels = MorselScheduler(workers)
        elif workers < 1:
            raise ValueError(f"need >= 1 worker, got {workers}")
        else:
            self.morsels = None
        #: Cooperative per-query deadline (``time.perf_counter`` seconds)
        #: the re-optimization drivers set around each run; the morsel
        #: fan-out checks it between waves and unwinds with
        #: :class:`~repro.executor.morsels.MorselCancelled`.
        self.deadline: float | None = None

    @property
    def workers(self) -> int:
        """Width of the morsel pool this executor fans out over."""
        return self.morsels.workers if self.morsels is not None else 1

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(self, plan: PhysicalPlan,
                extra_columns: tuple[ColumnRef, ...] = (),
                cache: dict[int, Chunk] | None = None) -> ExecutionResult:
        """Execute ``plan`` and return its result.

        ``extra_columns`` lists columns that must survive into the output even
        though the plan's own projection does not mention them (used when
        materializing subquery results that later subqueries will join on).

        ``cache`` optionally maps ``id(plan_node)`` to previously computed
        chunks; the plan-driven re-optimization baselines use it to execute a
        physical plan incrementally (subtree by subtree) without recomputing
        already-executed subtrees.
        """
        start = time.perf_counter()
        stats = MaterializationStats()
        needed = frozenset(self._needed_columns(plan, extra_columns))
        ctx = ExecContext(database=self.database, stats=stats, needed=needed,
                          eager=self.materialization == "eager",
                          fused=self.fused,
                          morsels=self.morsels, deadline=self.deadline)
        chunk = self._execute_node(plan.root, ctx, cache)
        join_rows = chunk.num_rows

        output_refs = tuple(dict.fromkeys(plan.output_columns + tuple(extra_columns)))
        if plan.aggregates:
            table = Aggregate(plan).execute(ctx, chunk)
        elif output_refs:
            # Encoded string columns leave as codes + the source table's
            # dictionary; whoever needs the strings decodes (column_values).
            table = chunk.table(plan.query_name, output_refs, stats)
        else:
            dictionaries: dict = {}
            columns = materialize_default(chunk, needed, stats, dictionaries)
            table = DataTable(name=plan.query_name, columns=columns,
                              dictionaries=dictionaries)
        wall = time.perf_counter() - start
        return ExecutionResult(table=table, join_rows=join_rows, wall_time=wall,
                               operator_times=dict(ctx.operator_times),
                               materialized_bytes=stats.gathered_bytes,
                               scan_blocks_total=ctx.scan_blocks_total,
                               scan_blocks_pruned=ctx.scan_blocks_pruned,
                               fused_rows_touched=ctx.fused_rows_touched,
                               fused_predicates=ctx.fused_predicates,
                               dict_predicates=ctx.dict_predicates,
                               semijoin_filters=ctx.semijoin_filters,
                               semijoin_pruned_rows=ctx.semijoin_pruned_rows,
                               morsels_total=ctx.morsels_total,
                               morsel_workers=self.workers,
                               parallel_scan_rows=ctx.parallel_scan_rows)

    # ------------------------------------------------------------------
    # Node evaluation
    # ------------------------------------------------------------------
    def _execute_node(self, node: PlanNode, ctx: ExecContext,
                      cache: dict[int, Chunk] | None = None,
                      scan_extra: tuple = ()) -> Chunk:
        """Evaluate one plan node (with caching and timing around it).

        ``scan_extra`` carries synthetic semijoin filters a parent hash
        join pushes into a probe-side scan.  They are conjunctive with the
        node's own filters *for this plan*, so the per-plan ``cache`` (and
        the node's recorded ``actual_rows``) may hold the pruned chunk --
        any row they drop cannot appear in the query's result.  The
        cross-plan subplan cache must NOT: its key is the node's canonical
        signature, which does not include the pushed filters.
        """
        if cache is not None and id(node) in cache:
            return cache[id(node)]

        signature = None
        if self.subplan_cache is not None and not ctx.eager:
            # Eager mode neither reads nor writes the subplan cache: a cached
            # late chunk would short-circuit the copy-per-operator behaviour
            # the mode exists to measure.
            try:
                signature = node.signature()
            except TypeError:
                # A filter predicate holds an unhashable literal: this
                # subtree simply cannot participate in signature caching.
                signature = None
        if signature is not None:
            hit = self.subplan_cache.get(signature)
            if hit is not None:
                node.actual_rows = hit.num_rows
                node.actual_time = 0.0
                label = f"Cached[{'+'.join(sorted(node.covered_aliases()))}]"
                ctx.operator_times[label] = 0.0
                if cache is not None:
                    cache[id(node)] = hit
                return hit

        start = time.perf_counter()
        if isinstance(node, ScanNode):
            operator = Scan(node)
            chunk = operator.execute(ctx, extra_filters=scan_extra)
        elif isinstance(node, JoinNode):
            if node.method is JoinMethod.INDEX_NL and isinstance(node.right, ScanNode):
                operator = IndexNLJoin(node)
                left = self._execute_node(node.left, ctx, cache)
                chunk = operator.execute(ctx, left)
            else:
                operator, chunk = self._execute_join(node, ctx, cache)
        else:
            raise ExecutionError(f"unsupported plan node {type(node).__name__}")

        if ctx.eager:
            chunk = compact(chunk, ctx.needed, ctx.stats)

        node.actual_rows = chunk.num_rows
        node.actual_time = time.perf_counter() - start
        ctx.operator_times[operator.label] = node.actual_time
        if cache is not None:
            cache[id(node)] = chunk
        if signature is not None and not scan_extra:
            # A semijoin-pruned chunk is correct for this plan only; the
            # signature does not cover the pushed filters, so sharing it
            # across plans would silently drop rows elsewhere.
            self.subplan_cache.put(signature, chunk)
        return chunk

    def _execute_join(self, node: JoinNode, ctx: ExecContext,
                      cache: dict[int, Chunk] | None):
        """Hash join / cross product, with semijoin pushdown when eligible.

        When one input is a large base-table scan and the other (build)
        side turns out small, the build side's join keys are collected
        into a :class:`~repro.executor.kernels.SemiJoinPredicate` (exact
        key set or Bloom filter) that the probe scan evaluates like any
        other pushed-down filter -- zone maps prune probe blocks outside
        the build key range, and the fused kernel drops non-matching rows
        before the hash probe ever sees them.
        """
        if node.predicates and self.semijoin:
            probe, build = self._semijoin_sides(node, ctx)
            if probe is not None:
                build_chunk = self._execute_node(build, ctx, cache)
                semis = self._semijoin_filters(node, probe, build_chunk, ctx)
                probe_chunk = self._execute_node(probe, ctx, cache,
                                                 scan_extra=semis)
                left, right = ((probe_chunk, build_chunk)
                               if probe is node.left
                               else (build_chunk, probe_chunk))
                operator = HashJoin(node)
                return operator, operator.execute(ctx, left, right)
        left = self._execute_node(node.left, ctx, cache)
        right = self._execute_node(node.right, ctx, cache)
        operator = HashJoin(node) if node.predicates else CrossProduct(node)
        return operator, operator.execute(ctx, left, right)

    def _semijoin_sides(self, node: JoinNode, ctx: ExecContext):
        """Pick (probe scan, build subtree) for semijoin pushdown, or None.

        The probe must be a scan of a large base table whose join-key
        column is a raw integer column (semijoin membership operates on
        key values; dictionary-encoded or temp-table columns do not
        qualify).  When both inputs qualify the larger table probes: the
        bigger the probe, the more the pushdown saves.
        """
        left_ok = self._semijoin_probe_eligible(node.left, node, ctx)
        right_ok = self._semijoin_probe_eligible(node.right, node, ctx)
        if left_ok and right_ok:
            left_rows = ctx.database.table(node.left.relation.table_name).num_rows
            right_rows = ctx.database.table(node.right.relation.table_name).num_rows
            if left_rows >= right_rows:
                return node.left, node.right
            return node.right, node.left
        if left_ok:
            return node.left, node.right
        if right_ok:
            return node.right, node.left
        return None, None

    @staticmethod
    def _semijoin_probe_eligible(side: PlanNode, node: JoinNode,
                                 ctx: ExecContext) -> bool:
        if not isinstance(side, ScanNode):
            return False
        relation = side.relation
        if relation.is_temp:
            return False
        table = ctx.database.table(relation.table_name)
        if table.num_rows < MIN_PROBE_ROWS:
            return False
        for pred in node.predicates:
            for ref in (pred.left, pred.right):
                if not relation.covers(ref.alias):
                    continue
                if (table.has_column(ref.column)
                        and not table.is_encoded(ref.column)
                        and table.column(ref.column).dtype.kind in "iu"):
                    return True
        return False

    @staticmethod
    def _semijoin_filters(node: JoinNode, probe: ScanNode, build_chunk: Chunk,
                          ctx: ExecContext) -> tuple:
        """Build one semijoin filter per eligible join key of ``probe``."""
        if build_chunk.num_rows > MAX_BUILD_ROWS:
            return ()
        table = ctx.database.table(probe.relation.table_name)
        filters = []
        for pred in node.predicates:
            if probe.relation.covers(pred.left.alias):
                probe_ref, build_ref = pred.left, pred.right
            elif probe.relation.covers(pred.right.alias):
                probe_ref, build_ref = pred.right, pred.left
            else:
                continue
            if (not table.has_column(probe_ref.column)
                    or table.is_encoded(probe_ref.column)
                    or table.column(probe_ref.column).dtype.kind not in "iu"):
                continue
            if not build_chunk.covers(build_ref.alias):
                continue
            keys = build_chunk.column(build_ref, ctx.stats)
            if keys.dtype.kind not in "iu":
                continue
            filters.append(build_semijoin_predicate(probe_ref, keys))
        ctx.semijoin_filters += len(filters)
        return tuple(filters)

    # ------------------------------------------------------------------
    # Projection push-down support
    # ------------------------------------------------------------------
    @staticmethod
    def _needed_columns(plan: PhysicalPlan,
                        extra_columns: tuple[ColumnRef, ...]) -> set[ColumnRef]:
        needed: set[ColumnRef] = set(plan.output_columns)
        needed.update(extra_columns)
        needed.update(plan.group_by)
        for spec in plan.aggregates:
            if spec.column is not None:
                needed.add(spec.column)

        def visit(node: PlanNode) -> None:
            if isinstance(node, JoinNode):
                for pred in node.predicates:
                    needed.add(pred.left)
                    needed.add(pred.right)
            for child in node.children():
                visit(child)

        visit(plan.root)
        return needed
