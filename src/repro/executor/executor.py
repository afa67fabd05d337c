"""Physical plan execution (late-materialization engine).

The executor walks a :class:`repro.plan.physical.PhysicalPlan` bottom-up and
evaluates every node with the operator pipeline of
:mod:`repro.executor.operators`.  Intermediate results are
:class:`~repro.executor.chunk.Chunk` objects -- one base-table row-id vector
per input relation that an operator above still reads (each join adds its
predicates' aliases to what its children keep) -- so joins only ever copy
``int64`` selection vectors.
Real columns are gathered from the stored tables exactly once: join keys
(as values) when a join needs them, and output/aggregate columns at the
plan root -- where dictionary-encoded strings stay codes, so the result
table, a temporary registered from it, and the aggregation kernel all work
on ``int32`` codes and only the caller's ``column_values`` / ``to_rows``
decodes.  The root either aggregates or gathers exactly the columns the
plan declares; a plan that declares none returns a zero-column table whose
``num_rows`` is the join's row count.  A scalar aggregate over a root join
with predicates (:meth:`~repro.executor.operators.Aggregate.reads_matches`
decides, from the plan's shape and column types) never merges the root's
matches: it folds each aggregated column at its own side's rows with that
side's match counts (:meth:`~repro.storage.index.Matches.weights`), so the
root builds no chunk and neither cache keeps one for it.  The plan a driver
passes in says what to return: every driver's last plan, QuerySplit's last
subquery's included, computes the query's output
(:func:`~repro.optimizer.optimizer.block_output`), and every other unit's
plan outputs the columns a later plan reads (see :mod:`repro.reopt.base`).

Two caches sit around the pipeline; both serve a chunk only to a consumer
whose reads it covers:

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
from repro.executor.chunk import Chunk, MaterializationStats, merge_chunks
from repro.executor.operators import (  # noqa: F401  (re-exported)
    Aggregate,
    CrossProduct,
    ExecContext,
    ExecutionError,
    HashJoin,
    IndexNLJoin,
    Operator,
    Scan,
)
from repro.executor.subplan_cache import SubplanCache
from repro.plan.physical import JoinMethod, JoinNode, PhysicalPlan, PlanNode, ScanNode
from repro.storage.database import Database
from repro.storage.index import Matches
from repro.storage.table import DataTable

__all__ = [
    "Executor", "ExecutionResult", "ExecutionError", "group_aggregate",
    "union_all",
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
    #: Bytes of gathered columns, and of the row-id vectors joins copy for
    #: relations still read above them.
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
                cache: dict[int, Chunk] | None = None) -> ExecutionResult:
        """Execute ``plan`` and return its result: the plan's aggregates, or
        else its ``output_columns``.

        ``cache`` optionally maps ``id(plan_node)`` to previously computed
        chunks; the plan-driven re-optimization baselines use it to execute a
        physical plan incrementally (subtree by subtree) without recomputing
        already-executed subtrees.
        """
        start = time.perf_counter()
        stats = MaterializationStats()
        ctx = ExecContext(database=self.database, stats=stats)
        output_refs = tuple(dict.fromkeys(plan.output_columns))
        aggregate = None
        if plan.aggregates:
            aggregate = Aggregate(plan.query_name, plan.group_by, plan.aggregates)
        # The root aggregates or gathers exactly these columns (possibly
        # none), so it keeps the sources of their aliases only.
        root_refs = aggregate.refs if aggregate is not None else output_refs
        reads = frozenset(ref.alias for ref in root_refs)

        if aggregate is not None and aggregate.reads_matches(plan.root,
                                                             self.database):
            table, join_rows = self._aggregate_root(plan.root, ctx, cache,
                                                    reads, aggregate)
        else:
            chunk = self._execute_node(plan.root, ctx, cache, reads)
            join_rows = chunk.num_rows
            if aggregate is not None:
                table = aggregate.execute(ctx, chunk)
            else:
                # Encoded string columns leave as codes + the source table's
                # dictionary; whoever needs the strings decodes (column_values).
                table = chunk.table(plan.query_name, output_refs, stats)
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
    def _aggregate_root(self, root: JoinNode, ctx: ExecContext,
                        cache: dict[int, Chunk] | None, reads: frozenset[str],
                        aggregate: Aggregate) -> tuple[DataTable, int]:
        """The scalar ``aggregate`` over the root join and the join's row
        count, read from its matches without merging them -- unless either
        cache holds the root's chunk, which is aggregated instead.  The
        matches are not a chunk, so neither cache keeps them."""
        hit, _ = self._lookup(root, ctx, cache, reads)
        if hit is not None:
            return aggregate.execute(ctx, hit), hit.num_rows
        start = time.perf_counter()
        operator, left, right, matches = self._join(root, ctx, cache, reads)
        self._record(root, operator, start, matches.total, ctx)
        return aggregate.execute_matches(ctx, left, right, matches), matches.total

    def _lookup(self, node: PlanNode, ctx: ExecContext,
                cache: dict[int, Chunk] | None, reads: frozenset[str]
                ) -> tuple[Chunk | None, tuple | None]:
        """``node``'s chunk from either cache when it covers ``reads``, and
        the node's subplan-cache signature (``None`` when there is no such
        cache or the node cannot be keyed)."""
        if cache is not None and id(node) in cache:
            hit = cache[id(node)]
            if hit.covers_all(reads & node.covered_aliases()):
                return hit, None

        signature = None
        if self.subplan_cache is not None:
            try:
                signature = node.signature()
            except TypeError:
                # A filter predicate holds an unhashable literal: this
                # subtree simply cannot participate in signature caching.
                signature = None
        if signature is not None:
            hit = self.subplan_cache.get(signature,
                                         reads & node.covered_aliases())
            if hit is not None:
                node.actual_rows = hit.num_rows
                node.actual_time = 0.0
                label = f"Cached[{'+'.join(sorted(node.covered_aliases()))}]"
                ctx.operator_times[label] = 0.0
                if cache is not None:
                    cache[id(node)] = hit
                return hit, signature
        return None, signature

    def _execute_node(self, node: PlanNode, ctx: ExecContext,
                      cache: dict[int, Chunk] | None,
                      reads: frozenset[str]) -> Chunk:
        """Evaluate one plan node (with caching and timing around it),
        keeping the sources that cover an alias in ``reads``, the aliases
        some operator above ``node`` reads."""
        hit, signature = self._lookup(node, ctx, cache, reads)
        if hit is not None:
            return hit

        start = time.perf_counter()
        if isinstance(node, ScanNode):
            operator = Scan(node)
            chunk = operator.execute(ctx)
        elif isinstance(node, JoinNode):
            operator, left, right, matches = self._join(node, ctx, cache, reads)
            chunk = merge_chunks(left, right, matches, reads, ctx.stats)
        else:
            raise ExecutionError(f"unsupported plan node {type(node).__name__}")

        self._record(node, operator, start, chunk.num_rows, ctx)
        if cache is not None:
            cache[id(node)] = chunk
        if signature is not None:
            self.subplan_cache.put(signature, chunk)
        return chunk

    def _join(self, node: JoinNode, ctx: ExecContext,
              cache: dict[int, Chunk] | None, reads: frozenset[str]
              ) -> tuple[Operator, Chunk, Chunk, Matches]:
        """Evaluate a join's inputs and find its matches: the operator, the
        left and right chunks, and the matches between them."""
        below = reads.union(*(pred.aliases() for pred in node.predicates))
        left = self._execute_node(node.left, ctx, cache, below)
        if node.method is JoinMethod.INDEX_NL and isinstance(node.right, ScanNode):
            operator = IndexNLJoin(node)
            matches, right = operator.matches(ctx, left)
        else:
            right = self._execute_node(node.right, ctx, cache, below)
            operator = HashJoin(node) if node.predicates else CrossProduct(node)
            matches = operator.matches(ctx, left, right)
        return operator, left, right, matches

    @staticmethod
    def _record(node: PlanNode, operator: Operator, start: float, rows: int,
                ctx: ExecContext) -> None:
        """Record ``node``'s actual rows and inclusive seconds since ``start``."""
        node.actual_rows = rows
        node.actual_time = time.perf_counter() - start
        ctx.operator_times[operator.label] = node.actual_time
