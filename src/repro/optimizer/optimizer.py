"""The optimizer facade.

An :class:`Optimizer` bundles a cardinality estimator, a cost model, and a
join enumerator, and exposes the two operations every re-optimization
algorithm needs:

* :meth:`Optimizer.plan` -- produce a physical plan for an SPJ query;
* :meth:`Optimizer.estimate` -- return the plan's estimated cost ``C(q)`` and
  output cardinality ``S(q)``, the two inputs of QuerySplit's subquery
  selection cost functions (Table 2 of the paper).

It also counts planner invocations so the experiments can report
re-optimization overhead.
"""

from __future__ import annotations

from repro.optimizer.cardinality import CardinalityEstimator, DefaultCardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.join_enum import EnumeratorConfig, JoinEnumerator
from repro.plan.logical import SPJQuery
from repro.plan.physical import PhysicalPlan
from repro.storage.database import Database


class Optimizer:
    """Cost-based optimizer over the in-memory database."""

    def __init__(self, database: Database,
                 estimator: CardinalityEstimator | None = None,
                 cost_model: CostModel | None = None,
                 config: EnumeratorConfig | None = None):
        self.database = database
        self.estimator = estimator or DefaultCardinalityEstimator(database)
        self.cost_model = cost_model or CostModel()
        self.config = config or EnumeratorConfig()
        self.enumerator = JoinEnumerator(database, self.estimator,
                                         self.cost_model, self.config)
        self.invocations = 0

    def plan(self, query: SPJQuery) -> PhysicalPlan:
        """Produce a physical plan for an SPJ query."""
        self.invocations += 1
        root = self.enumerator.plan(query)
        return PhysicalPlan(
            query_name=query.name,
            root=root,
            output_columns=query.projections,
            aggregates=query.aggregates,
            # Projections next to aggregates are the GROUP BY keys (what
            # QuerySplit's _finalize groups such a block by).
            group_by=query.projections if query.aggregates else (),
        )

    def estimate(self, query: SPJQuery) -> tuple[float, float]:
        """Return ``(C(q), S(q))``: estimated plan cost and output cardinality.

        QuerySplit reads both numbers from the plan it then executes, so
        nothing under ``src/`` calls this; it stays as the paper's
        ``(C(q), S(q))`` interface, which the e2e tracer wraps by name.
        """
        plan = self.plan(query)
        return plan.est_cost, plan.est_rows

    def with_estimator(self, estimator: CardinalityEstimator) -> "Optimizer":
        """A new optimizer over the same database using a different estimator."""
        return Optimizer(self.database, estimator=estimator,
                         cost_model=self.cost_model, config=self.config)
