"""The QuerySplit driver loop (Figure 5 of the paper).

The :class:`QuerySplitExecutor` implements the full algorithm:

1. run the Query Splitting Algorithm to obtain a covering subquery set that
   overlaps as one group;
2. at every iteration rank the remaining subqueries by the configured cost
   function Phi of the estimated cost ``C(q)`` and output cardinality
   ``S(q)`` of their plans, and select the minimum.  Each subquery is
   planned once: its plan supplies ``C(q)`` and ``S(q)`` and, if it wins,
   is the plan that runs; it is planned again only after a temporary was
   substituted into it;
3. drop every remaining subquery within the selected one (it would become a
   bare re-scan of the result).  If any remain, execute the selected one,
   materialize its result as a temporary table (optionally collecting
   statistics) and substitute it into the subqueries it overlaps -- at
   least one, since the set overlaps as one group;
4. otherwise the selected subquery is the last and covers the block: its
   plan computes the block's projections, scalar aggregates or GROUP BY,
   as a baseline's final plan does.  The paper's result set and Cartesian
   merge are not needed; a disconnected block is crossed by QSA's
   connecting subquery.

Like every baseline, the executor is an :class:`~repro.reopt.base.AlgorithmBase`:
``run`` (non-SPJ blocks via :mod:`repro.core.nonspj`, timeout, temp cleanup)
and step 3 (``_step``: execute, ANALYZE, register, record) are the base's;
the selection loop is QuerySplit's.  A materialized subquery's plan outputs
the base's one column rule (``_unit_columns``): the query's output columns
within the subquery, then the columns every remaining subquery reads
after it -- which are also the columns ANALYZE reads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Not called here (ANALYZE runs in AlgorithmBase._step, aggregation in the
# last subquery's plan), but benchmarks/e2e/tracing.py looks these names up
# in this module to patch them.
from repro.catalog.analyze import analyze_columns  # noqa: F401
from repro.executor.aggregates import _scalar_aggregate, group_aggregate  # noqa: F401
from repro.core.qsa import QSAStrategy, generate_subqueries
from repro.core.ssa import CostFunction, SubqueryEstimate, select_subquery
from repro.executor.executor import Executor
from repro.optimizer.optimizer import Optimizer, block_output
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
        consumed: set[str] = set()

        while True:
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
            # Substituting the result into a subquery within it would leave
            # a bare re-scan of it.
            remaining = [(q, p) for q, p in remaining
                         if not q.covered_aliases() <= covered]
            if not remaining:
                # The last subquery covers the block: its plan computes the
                # block's output, like a baseline's final plan.
                result, _ = self._step(replace(plan, **block_output(spj)), report,
                                       subquery.name,
                                       decide=lambda _rows: (False, True))
                return result.table
            read_after = tuple(dict.fromkeys(
                ref for q, _ in remaining for ref in q.columns_read_after(covered)))
            plan = replace(plan,
                           output_columns=self._unit_columns(spj, covered, read_after))
            _, temp = self._step(plan, report, subquery.name, read_after=read_after,
                                 decide=lambda _rows: (True, True))
            remaining = self._substitute(remaining, temp)
            consumed.update(covered)

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
        return [(q.substitute(temp), None)
                if q.covered_aliases() & temp.covered_aliases else (q, plan)
                for q, plan in remaining]
