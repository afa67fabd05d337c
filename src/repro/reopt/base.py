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

The executor serves a cached chunk only to a consumer whose reads it
covers, and with the per-plan cache that always holds.  A subtree plan
outputs every column the query references within its aliases
(:meth:`_retained_columns`), so it and every node below it keep every
relation with a referenced column; every later consumer -- a join above the
checkpoint, or the final plan's root, which aggregates or gathers only the
query's own columns -- reads a subset of those.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.catalog.analyze import analyze_columns
from repro.catalog.schema import Schema
from repro.catalog.statistics import TableStats
from repro.core.nonspj import execute_query_tree
from repro.executor.chunk import Chunk
from repro.executor.executor import ExecutionError, Executor
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
    segmentation, deadline, temp cleanup) and the materialize step.

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

    def _collect_stats(self, table: DataTable, refs: tuple[ColumnRef, ...]
                       ) -> tuple[TableStats, float, bool]:
        """ANALYZE the columns of ``table`` the next plan can ask about."""
        start = time.perf_counter()
        if self.config.collect_statistics:
            stats = analyze_columns(
                {ref.qualified: table.columns[ref.qualified] for ref in refs},
                num_rows=table.num_rows, dictionaries=table.dictionaries)
            return stats, time.perf_counter() - start, True
        return (TableStats.row_count_only(table.num_rows),
                time.perf_counter() - start, False)

    def _materialize(self, table: DataTable, refs: tuple[ColumnRef, ...],
                     aliases: frozenset[str], report: ExecutionReport
                     ) -> tuple[RelationRef, float, int]:
        """ANALYZE ``refs`` of ``table``, charging ``report``, and register it
        as a temporary covering ``aliases``.  Returns the temporary's
        relation, the ANALYZE seconds and the number of columns analyzed."""
        stats, analyze_time, collected = self._collect_stats(table, refs)
        report.total_time += analyze_time
        if collected:
            report.stats_collections += 1
        temp_name = self.database.register_temp(table, stats, aliases)
        return RelationRef.temp(temp_name, aliases), analyze_time, len(stats.columns)

    @staticmethod
    def _retained_columns(spj: SPJQuery, aliases: frozenset[str]) -> tuple[ColumnRef, ...]:
        """Every column of ``spj`` (outputs and predicates) within ``aliases``,
        in the fixed order of :meth:`SPJQuery.referenced_columns`."""
        return tuple(ref for ref in spj.referenced_columns() if ref.alias in aliases)


class NonAdaptiveBaseline(AlgorithmBase):
    """Plan once, execute once (Default, Optimal, and the robust baselines)."""

    def _run_spj(self, spj: SPJQuery, report: ExecutionReport) -> DataTable:
        self._check_timeout()
        plan = self.optimizer.plan(spj)
        result = self.executor.execute(plan)
        report.total_time += result.wall_time
        report.iterations.append(IterationRecord(
            index=len(report.iterations),
            description=f"{spj.name}:full-plan",
            aliases=spj.covered_aliases(),
            result_rows=result.join_rows,
            wall_time=result.wall_time,
            memory_bytes=result.memory_bytes,
            materialized=False,
            replanned=False,
        ))
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
            retained = self._retained_columns(spj, aliases)
            subtree_plan = PhysicalPlan(query_name=f"{spj.name}:subplan",
                                        root=node, output_columns=retained)
            result = self.executor.execute(subtree_plan, cache=cache)
            report.total_time += result.wall_time

            estimated = max(node.est_rows, 1.0)
            actual = max(result.join_rows, 1)
            q_error = max(actual / estimated, estimated / actual)
            triggered = q_error > self.trigger_threshold
            materialize = triggered or self.always_materialize

            analyze_time = 0.0
            stats_columns = 0
            if materialize:
                temp_ref, analyze_time, stats_columns = self._materialize(
                    result.table, remaining.columns_read_after(aliases),
                    aliases, report)
                remaining = remaining.substitute(temp_ref)
                if triggered:
                    current_plan = None  # force a re-plan of the remaining query

            report.iterations.append(IterationRecord(
                index=len(report.iterations),
                description=f"{spj.name}:{'+'.join(sorted(aliases))}",
                aliases=aliases,
                result_rows=result.table.num_rows,
                wall_time=result.wall_time + analyze_time,
                memory_bytes=result.table.memory_bytes,
                materialized=materialize,
                replanned=triggered,
                stats_collected=materialize and self.config.collect_statistics,
                stats_columns=stats_columns,
            ))

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
        result = self.executor.execute(plan, cache=cache)
        report.total_time += result.wall_time
        report.iterations.append(IterationRecord(
            index=len(report.iterations),
            description=f"{remaining.name}:final",
            aliases=remaining.covered_aliases(),
            result_rows=result.join_rows,
            wall_time=result.wall_time,
            memory_bytes=result.memory_bytes,
            materialized=False,
            replanned=False,
        ))
        return result.table
