"""The QuerySplit driver loop (Figure 5 of the paper).

The :class:`QuerySplitExecutor` implements the full algorithm:

1. run the Query Splitting Algorithm to obtain a covering subquery set;
2. at every iteration rank the remaining subqueries by the configured cost
   function Phi of the estimated cost ``C(q)`` and output cardinality
   ``S(q)`` of their plans, and select the minimum.  Each subquery is
   planned once: its plan supplies ``C(q)`` and ``S(q)`` and, if it wins,
   is the plan that runs; it is planned again only after a temporary was
   substituted into it;
3. execute it; if it overlaps with remaining subqueries, materialize the
   result as a temporary table (optionally collecting statistics) and
   substitute it into the overlapping subqueries; otherwise push the result
   to the result set;
4. repeat until the subquery set is empty, then merge the result set by
   Cartesian product and apply the query's final projection / aggregation.

Like every baseline, the executor is an :class:`~repro.reopt.base.AlgorithmBase`:
``run`` (non-SPJ blocks via :mod:`repro.core.nonspj`, timeout, temp cleanup)
and step 3 (``_step``: execute, ANALYZE, register, record) are the base's;
the selection loop is QuerySplit's.  The selected subquery's plan outputs
the base's one column rule (``_unit_columns``): the query's output columns
within the subquery, then the columns every remaining subquery reads
after it -- which are also the columns ANALYZE reads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

# Not called here (ANALYZE runs in AlgorithmBase._step), but
# benchmarks/e2e/tracing.py looks the name up in this module to patch it.
from repro.catalog.analyze import analyze_columns  # noqa: F401
from repro.core.qsa import QSAStrategy, generate_subqueries
from repro.core.ssa import CostFunction, SubqueryEstimate, select_subquery
from repro.executor.aggregates import _scalar_aggregate, group_aggregate
from repro.executor.executor import Executor
from repro.optimizer.optimizer import Optimizer
from repro.plan.logical import RelationRef, SPJQuery
from repro.plan.physical import PhysicalPlan
from repro.reopt.base import AlgorithmBase, BaselineConfig
from repro.report import ExecutionReport
from repro.storage.database import Database
from repro.storage.table import DataTable


@dataclass
class QuerySplitConfig(BaselineConfig):
    """Configuration of the QuerySplit algorithm (the baselines' plus policy)."""

    qsa_strategy: QSAStrategy = QSAStrategy.FK_CENTER
    cost_function: CostFunction = CostFunction.PHI4


class QuerySplitExecutor(AlgorithmBase):
    """Runs queries with the QuerySplit re-optimization algorithm."""

    def __init__(self, database: Database, optimizer: Optimizer,
                 executor: Executor | None = None,
                 config: QuerySplitConfig | None = None):
        super().__init__("QuerySplit", database, optimizer, executor,
                         config or QuerySplitConfig())

    # A name of this class's own, so benchmarks/e2e/tracing.py can time
    # QuerySplit's runs ("core.run") apart from the baselines' ("reopt.run").
    run = AlgorithmBase.run

    # ------------------------------------------------------------------
    # SPJ execution (the QuerySplit loop proper)
    # ------------------------------------------------------------------
    def _run_spj(self, spj: SPJQuery, report: ExecutionReport) -> DataTable:
        subqueries = generate_subqueries(spj, self.database.schema,
                                         self.config.qsa_strategy)
        global_plan = None
        if self.config.cost_function is CostFunction.GLOBAL_DEEP:
            global_plan = self.optimizer.plan(spj)

        # Each remaining subquery with its plan; None until it is planned.
        remaining: list[tuple[SPJQuery, PhysicalPlan | None]] = [
            (sq, None) for sq in subqueries]
        result_tables: list[DataTable] = []
        consumed: set[str] = set()
        aggregated = False

        while remaining:
            self._check_timeout()
            remaining = [
                (sq, plan if plan is not None else self.optimizer.plan(sq))
                for sq, plan in remaining
            ]
            estimates = [
                SubqueryEstimate(sq, plan.est_cost, plan.est_rows)
                for sq, plan in remaining
            ]
            idx = select_subquery(estimates, self.config.cost_function,
                                  global_plan, frozenset(consumed))
            subquery, plan = remaining.pop(idx)
            covered = subquery.covered_aliases()

            # The last subquery's result is the only one when the query
            # has no other: its scalar aggregates are the query's result.
            aggregated = (not remaining and not result_tables
                          and spj.covered_aliases() <= covered
                          and bool(spj.aggregates) and not spj.projections)
            read_after = tuple(dict.fromkeys(
                ref for q, _ in remaining for ref in q.columns_read_after(covered)))
            plan = replace(plan,
                           output_columns=self._unit_columns(spj, covered, read_after),
                           aggregates=spj.aggregates if aggregated else ())
            materialized = any(q.covered_aliases() & covered for q, _ in remaining)
            result, temp = self._step(
                plan, report, subquery.name, read_after=read_after,
                decide=lambda _rows: (materialized, True))
            if temp is not None:
                remaining = self._substitute(remaining, temp)
                if not remaining:
                    # Every other subquery became redundant after substitution:
                    # the temporary we just built carries the final data.
                    result_tables.append(result.table)
            else:
                result_tables.append(result.table)
            consumed.update(covered)

        if aggregated:
            return result.table
        finalize_start = time.perf_counter()
        final = self._finalize(result_tables, spj)
        report.total_time += time.perf_counter() - finalize_start
        return final

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _substitute(remaining: list[tuple[SPJQuery, PhysicalPlan | None]],
                    temp: RelationRef
                    ) -> list[tuple[SPJQuery, PhysicalPlan | None]]:
        """Substitute ``temp`` into the overlapping subqueries.

        A substituted subquery loses its plan; an untouched one keeps it,
        since its query, its relations and their statistics are unchanged.
        """
        substituted = []
        for q, plan in remaining:
            if q.covered_aliases() & temp.covered_aliases:
                q, plan = q.substitute(temp), None
            # Drop subqueries reduced to a bare re-scan of the temporary.
            if (len(q.relations) == 1 and q.relations[0].is_temp
                    and not q.filters and not q.join_predicates):
                continue
            substituted.append((q, plan))
        return substituted

    def _finalize(self, result_tables: list[DataTable], spj: SPJQuery) -> DataTable:
        """Cartesian-merge the result set and apply the final projection."""
        if not result_tables:
            return DataTable(name=spj.name, columns={})
        # Encoded columns are repeated/tiled as codes; every column comes
        # from exactly one input, whose dictionary it keeps.
        columns = dict(result_tables[0].columns)
        dictionaries = dict(result_tables[0].dictionaries)
        rows = result_tables[0].num_rows
        for table in result_tables[1:]:
            other_rows = table.num_rows
            columns = {
                name: np.repeat(arr, other_rows) for name, arr in columns.items()}
            for name, arr in table.columns.items():
                columns[name] = np.tile(arr, rows)
                dictionaries.pop(name, None)
            dictionaries.update(table.dictionaries)
            rows = rows * other_rows
        merged = DataTable(name=spj.name, columns=columns,
                           dictionaries=dictionaries, num_rows=rows)
        if spj.aggregates:
            return (_scalar_aggregate(merged, spj.aggregates)
                    if not spj.projections
                    else group_aggregate(merged, spj.projections, spj.aggregates))
        if spj.projections:
            wanted = {ref.qualified for ref in spj.projections}
            return merged.project([name for name in columns if name in wanted])
        return merged
