"""The driver base of every algorithm and the baselines' re-optimization loop.

All four baselines of the paper (Reopt, Pop, IEF, Perron19) follow the same
skeleton -- they differ only in *where* they materialize intermediate results
and *when* a deviation between the estimated and the observed cardinality
triggers a re-plan:

1. optimize the remaining query into a global physical plan;
2. execute the plan incrementally up to the next materialization point;
3. compare the observed cardinality against the estimate; if the policy's
   trigger fires, materialize the intermediate result as a temporary table
   (collecting statistics unless disabled), substitute it into the remaining
   query, and go back to step 1;
4. otherwise continue with the *same* plan (this is what makes the baselines
   hostage to a bad initial plan);
5. when no materialization point remains, execute the rest of the plan and
   finish.

The policy is three constructor arguments: ``checkpoints`` (the rule that
lists the plan nodes to stop at), ``always_materialize`` and
``trigger_threshold``.  What each algorithm passes is one row of
:data:`repro.reopt.registry.ALGORITHMS`.

Incremental execution relies on two layers of caching in the executor: the
per-plan ``cache`` dict below (``id(node)`` -> executed
:class:`~repro.executor.chunk.Chunk`) keeps already-executed subtrees of the
*current* plan from re-running, and -- when the shared executor was built
with an engine-level
:class:`~repro.executor.subplan_cache.SubplanCache` -- equivalent subtrees
are also reused across re-plans, queries, and whole policies by canonical
signature (a re-planned remaining query usually re-joins the same filtered
base relations, just in a different order).

Every driver -- the baselines here and QuerySplit -- runs each unit through
:meth:`AlgorithmBase._step`, and a unit's plan outputs the columns of one
rule (:meth:`AlgorithmBase._unit_columns`): the query's output columns
within the unit, then the columns a later plan reads
(:meth:`~repro.plan.logical.SPJQuery.columns_read_after`), which are also
the columns ANALYZE reads when the unit is materialized.  A predicate
internal to the unit was applied inside it, so its columns are not kept.

The executor serves a cached chunk only to a consumer whose reads it
covers, and with the per-plan cache that always holds.  A checkpoint's
subtree, and every node below it, keeps every relation with a column of
that rule; every later consumer reads a subset of those: a join above the
checkpoint reads the columns of its predicates, which cross the unit's
boundary and so are read after it, and the final plan's root aggregates
or gathers only the query's own output columns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.catalog.analyze import analyze_columns
from repro.catalog.schema import Schema
from repro.catalog.statistics import TableStats
from repro.core.nonspj import execute_query_tree
from repro.executor.chunk import Chunk
from repro.executor.executor import ExecutionError, ExecutionResult, Executor
from repro.executor.joins import JoinOverflowError
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.oracle import TrueCardinalityOracle
from repro.plan.expressions import ColumnRef
from repro.plan.logical import Query, RelationRef, SPJQuery
from repro.plan.physical import JoinNode, PhysicalPlan
from repro.report import ExecutionReport, IterationRecord
from repro.storage.database import Database
from repro.storage.table import DataTable


#: A checkpoint rule: the plan nodes, in execution order, where a
#: re-optimizer stops to compare its estimate with the observed rows.
Checkpoints = Callable[[PhysicalPlan, Schema], list[JoinNode]]


class QueryTimeout(Exception):
    """Raised internally when a query exceeds its execution-time budget."""


@dataclass
class BaselineConfig:
    """Configuration shared by every algorithm."""

    collect_statistics: bool = True
    timeout_seconds: float | None = None


class AlgorithmBase:
    """Driver base of every algorithm, QuerySplit included: run() (non-SPJ
    segmentation, deadline, temp cleanup) and the step every unit runs
    through.

    ``name`` is what every report of the driver calls its algorithm;
    ``oracle`` is the true-cardinality oracle driving the optimizer, if any,
    reset after every run to bound its memory."""

    def __init__(self, name: str, database: Database, optimizer: Optimizer,
                 executor: Executor | None = None,
                 config: BaselineConfig | None = None,
                 oracle: TrueCardinalityOracle | None = None):
        self.name = name
        self.oracle = oracle
        self.database = database
        self.optimizer = optimizer
        self.executor = executor or Executor(database)
        self.config = config or BaselineConfig()
        self._deadline: float | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, query: Query) -> ExecutionReport:
        """Execute ``query`` and return its execution report."""
        report = ExecutionReport(query_name=query.name, algorithm=self.name,
                                 total_time=0.0)
        self._deadline = (time.perf_counter() + self.config.timeout_seconds
                          if self.config.timeout_seconds is not None else None)
        planner_before = self.optimizer.invocations
        try:
            final = execute_query_tree(
                query.root, lambda spj: self._run_spj(spj, report))
            report.final_table = final
            report.final_rows = final.num_rows
        except (QueryTimeout, JoinOverflowError, ExecutionError):
            # Exceeding the join-size cap or the time budget is the Python
            # engine's analogue of the paper's 1000 s query timeout.
            report.timed_out = True
            if self.config.timeout_seconds is not None:
                report.total_time = max(report.total_time, self.config.timeout_seconds)
        finally:
            report.planner_invocations = self.optimizer.invocations - planner_before
            self.database.drop_temp_tables()
            if self.oracle is not None:
                self.oracle.reset()
        return report

    def _run_spj(self, spj: SPJQuery, report: ExecutionReport) -> DataTable:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _check_timeout(self) -> None:
        if self._deadline is not None and time.perf_counter() > self._deadline:
            raise QueryTimeout()

    def _step(self, plan: PhysicalPlan, report: ExecutionReport,
              description: str, *, cache: dict[int, Chunk] | None = None,
              read_after: tuple[ColumnRef, ...] = (),
              decide: Callable[[int], tuple[bool, bool]] | None = None
              ) -> tuple[ExecutionResult, RelationRef | None]:
        """Execute ``plan`` as one unit of ``report`` and record it.

        ``decide(rows)`` answers, from the plan's output rows, whether to
        materialize the result and whether the unit counts as re-planned
        (default: neither).  A materialized result is ANALYZEd on
        ``read_after`` -- the columns a later plan can ask about -- and
        registered as a temporary covering the plan's aliases.  Every
        second is charged to ``report``.  Returns the execution result and
        the temporary's relation (``None`` when not materialized)."""
        result = self.executor.execute(plan, cache=cache)
        report.total_time += result.wall_time
        materialize, replanned = (decide(result.join_rows) if decide is not None
                                  else (False, False))
        aliases = plan.root.covered_aliases()
        temp = None
        analyze_time = 0.0
        stats_columns = 0
        if materialize:
            start = time.perf_counter()
            if self.config.collect_statistics:
                table = result.table
                stats = analyze_columns(
                    {ref.qualified: table.columns[ref.qualified] for ref in read_after},
                    num_rows=table.num_rows, dictionaries=table.dictionaries)
                report.stats_collections += 1
            else:
                stats = TableStats.row_count_only(result.table.num_rows)
            analyze_time = time.perf_counter() - start
            report.total_time += analyze_time
            stats_columns = len(stats.columns)
            temp = RelationRef.temp(
                self.database.register_temp(result.table, stats, aliases), aliases)
        report.iterations.append(IterationRecord(
            index=len(report.iterations),
            description=description,
            aliases=aliases,
            result_rows=result.join_rows,
            wall_time=result.wall_time + analyze_time,
            memory_bytes=result.memory_bytes,
            materialized=materialize,
            replanned=replanned,
            stats_collected=materialize and self.config.collect_statistics,
            stats_columns=stats_columns,
        ))
        return result, temp

    @staticmethod
    def _unit_columns(spj: SPJQuery, covered: frozenset[str],
                      read_after: tuple[ColumnRef, ...]) -> tuple[ColumnRef, ...]:
        """What the plan of a unit covering ``covered`` outputs: ``spj``'s
        output columns within it, then ``read_after``, each once."""
        return tuple(dict.fromkeys(
            [ref for ref in spj.output_columns() if ref.alias in covered]
            + list(read_after)))


class NonAdaptiveBaseline(AlgorithmBase):
    """Plan once, execute once (Default, Optimal, and the robust baselines)."""

    def _run_spj(self, spj: SPJQuery, report: ExecutionReport) -> DataTable:
        self._check_timeout()
        result, _ = self._step(self.optimizer.plan(spj), report,
                               f"{spj.name}:full-plan")
        return result.table


class ReoptimizerBase(AlgorithmBase):
    """The plan-driven re-optimization loop.

    ``checkpoints(plan, schema)`` lists the plan nodes, in execution order,
    where the loop stops; ``always_materialize`` materializes at every one
    of them, even without a trigger; a q-error above ``trigger_threshold``
    re-plans the remaining query."""

    def __init__(self, name: str, database: Database, optimizer: Optimizer,
                 executor: Executor | None = None,
                 config: BaselineConfig | None = None,
                 oracle: TrueCardinalityOracle | None = None, *,
                 checkpoints: Checkpoints,
                 always_materialize: bool = False,
                 trigger_threshold: float = 2.0):
        super().__init__(name, database, optimizer, executor, config, oracle)
        self.checkpoints = checkpoints
        self.always_materialize = always_materialize
        self.trigger_threshold = trigger_threshold

    # ------------------------------------------------------------------
    # The shared loop
    # ------------------------------------------------------------------
    def _run_spj(self, spj: SPJQuery, report: ExecutionReport) -> DataTable:
        remaining = spj
        current_plan: PhysicalPlan | None = None
        cache: dict[int, Chunk] = {}
        consumed_points: set[int] = set()

        while True:
            self._check_timeout()
            if current_plan is None:
                current_plan = self.optimizer.plan(remaining)
                cache = {}
                consumed_points = set()

            points = [
                node for node in self.checkpoints(current_plan,
                                                  self.database.schema)
                if node is not current_plan.root and id(node) not in consumed_points
            ]
            if not points or len(remaining.relations) <= 2:
                return self._finish(remaining, current_plan, cache, report)

            node = self._next_point(points, remaining, consumed_points)
            if node is None:
                return self._finish(remaining, current_plan, cache, report)
            aliases = node.covered_aliases()
            read_after = remaining.columns_read_after(aliases)
            subtree_plan = PhysicalPlan(
                query_name=f"{spj.name}:subplan", root=node,
                output_columns=self._unit_columns(spj, aliases, read_after))
            _, temp = self._step(
                subtree_plan, report, f"{spj.name}:{'+'.join(sorted(aliases))}",
                cache=cache, read_after=read_after,
                decide=partial(self._decide, node))
            if temp is not None:
                remaining = remaining.substitute(temp)
                if report.iterations[-1].replanned:
                    current_plan = None  # force a re-plan of the remaining query

    def _decide(self, node: JoinNode, rows: int) -> tuple[bool, bool]:
        """Materialize ``node``'s result of ``rows`` rows, and re-plan?  A
        q-error above the threshold triggers both."""
        estimated = max(node.est_rows, 1.0)
        actual = max(rows, 1)
        triggered = max(actual / estimated, estimated / actual) > self.trigger_threshold
        return triggered or self.always_materialize, triggered

    def _next_point(self, points: list[JoinNode], remaining: SPJQuery,
                    consumed_points: set[int]) -> JoinNode | None:
        """Pick the next materialization point that can be safely materialized.

        A point is skipped when its relations only partially overlap a
        relation of the remaining query (i.e. an already-materialized
        temporary that covers more aliases than the point): substituting it
        would lose data.  This only arises when a policy re-orders the plan's
        checkpoints (e.g. the Phi-ordered variants of Table 5).
        """
        for node in points:
            consumed_points.add(id(node))
            aliases = node.covered_aliases()
            safe = True
            for relation in remaining.relations:
                overlap = relation.covered_aliases & aliases
                if overlap and not (relation.covered_aliases <= aliases):
                    safe = False
                    break
            if safe:
                return node
        return None

    def _finish(self, remaining: SPJQuery, plan: PhysicalPlan,
                cache: dict[int, Chunk], report: ExecutionReport) -> DataTable:
        result, _ = self._step(plan, report, f"{remaining.name}:final", cache=cache)
        return result.table
