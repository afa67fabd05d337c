"""Execution reports shared by QuerySplit and all baseline algorithms.

Every algorithm produces an :class:`ExecutionReport` per query: the total
measured execution time, one :class:`IterationRecord` per executed unit
(subquery / subplan), and bookkeeping about materializations and statistics
collection.  These records directly feed the paper's evaluation artifacts:

* total time            -> Figures 11-15, Tables 3 and 5;
* materialization count and memory -> Table 4;
* per-iteration result sizes and times -> the timelines of Figures 16-19 and
  the per-query categories of Table 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.table import DataTable


@dataclass
class IterationRecord:
    """One executed unit (subquery or subplan) of a re-optimization run."""

    index: int
    description: str
    aliases: frozenset[str]
    result_rows: int
    wall_time: float
    memory_bytes: int
    materialized: bool
    replanned: bool
    stats_collected: bool = False
    #: Columns of the materialized temporary this iteration ran ANALYZE on.
    stats_columns: int = 0


@dataclass
class ExecutionReport:
    """Outcome of running one query under one algorithm."""

    query_name: str
    algorithm: str
    total_time: float
    iterations: list[IterationRecord] = field(default_factory=list)
    final_table: DataTable | None = None
    final_rows: int = 0
    timed_out: bool = False
    planner_invocations: int = 0
    stats_collections: int = 0

    # ------------------------------------------------------------------
    # Derived metrics used by the experiments
    # ------------------------------------------------------------------
    @property
    def num_iterations(self) -> int:
        """Number of executed units."""
        return len(self.iterations)

    @property
    def materializations(self) -> int:
        """Number of intermediate results materialized into temporary tables."""
        return sum(1 for it in self.iterations if it.materialized)

    @property
    def stats_columns(self) -> int:
        """Number of temporary-table columns analyzed across all iterations."""
        return sum(it.stats_columns for it in self.iterations)

    @property
    def materialized_bytes(self) -> int:
        """Total bytes written to temporary tables."""
        return sum(it.memory_bytes for it in self.iterations if it.materialized)

    @property
    def max_intermediate_rows(self) -> int:
        """Largest intermediate result produced across all iterations."""
        if not self.iterations:
            return 0
        return max(it.result_rows for it in self.iterations)

    def timeline(self) -> list[tuple[int, int, float]]:
        """``(iteration, result_rows, wall_time)`` tuples (Figures 16-19)."""
        return [(it.index, it.result_rows, it.wall_time) for it in self.iterations]


@dataclass
class WorkloadResult:
    """Aggregated outcome of running a whole workload under one algorithm."""

    algorithm: str
    reports: list[ExecutionReport] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        """Sum of per-query execution times (timed-out queries count their cap)."""
        return sum(r.total_time for r in self.reports)

    @property
    def timeouts(self) -> int:
        """Number of queries that hit the per-query timeout."""
        return sum(1 for r in self.reports if r.timed_out)

    def report_for(self, query_name: str) -> ExecutionReport:
        """The report of a specific query."""
        for report in self.reports:
            if report.query_name == query_name:
                return report
        raise KeyError(f"no report for query {query_name!r}")
