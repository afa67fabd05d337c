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
from repro.executor.chunk import Chunk, MaterializationStats, materialize_default
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
    "group_aggregate", "union_all",
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
    #: Always 0: base tables have no storage blocks to prune.  Kept only
    #: because the end-to-end benchmark's tracer still reads them.
    scan_blocks_total: int = 0
    scan_blocks_pruned: int = 0
    #: Fused-kernel accounting: candidate rows each compiled predicate
    #: actually evaluated over (the naive loop would touch
    #: ``rows * num_predicates``), and predicates that ran fused.
    fused_rows_touched: int = 0
    fused_predicates: int = 0
    #: Predicates scans rewrote into dictionary code space.
    dict_predicates: int = 0
    #: Always 0: the engine no longer pushes build-side key filters into
    #: probe scans.  Kept only because the end-to-end benchmark's tracer
    #: still reads it.
    semijoin_pruned_rows: int = 0

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
    """

    def __init__(self, database: Database,
                 subplan_cache: SubplanCache | None = None):
        self.database = database
        self.subplan_cache = subplan_cache
        if subplan_cache is not None:
            subplan_cache.bind(database)

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
        ctx = ExecContext(database=self.database, stats=stats)
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
            needed = frozenset(self._needed_columns(plan, extra_columns))
            table = materialize_default(chunk, plan.query_name, needed, stats)
        wall = time.perf_counter() - start
        return ExecutionResult(table=table, join_rows=join_rows, wall_time=wall,
                               operator_times=dict(ctx.operator_times),
                               materialized_bytes=stats.gathered_bytes,
                               fused_rows_touched=ctx.fused_rows_touched,
                               fused_predicates=ctx.fused_predicates,
                               dict_predicates=ctx.dict_predicates)

    # ------------------------------------------------------------------
    # Node evaluation
    # ------------------------------------------------------------------
    def _execute_node(self, node: PlanNode, ctx: ExecContext,
                      cache: dict[int, Chunk] | None = None) -> Chunk:
        """Evaluate one plan node (with caching and timing around it)."""
        if cache is not None and id(node) in cache:
            return cache[id(node)]

        signature = None
        if self.subplan_cache is not None:
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
            chunk = operator.execute(ctx)
        elif isinstance(node, JoinNode):
            left = self._execute_node(node.left, ctx, cache)
            if node.method is JoinMethod.INDEX_NL and isinstance(node.right, ScanNode):
                operator = IndexNLJoin(node)
                chunk = operator.execute(ctx, left)
            else:
                right = self._execute_node(node.right, ctx, cache)
                operator = HashJoin(node) if node.predicates else CrossProduct(node)
                chunk = operator.execute(ctx, left, right)
        else:
            raise ExecutionError(f"unsupported plan node {type(node).__name__}")

        node.actual_rows = chunk.num_rows
        node.actual_time = time.perf_counter() - start
        ctx.operator_times[operator.label] = node.actual_time
        if cache is not None:
            cache[id(node)] = chunk
        if signature is not None:
            self.subplan_cache.put(signature, chunk)
        return chunk

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
