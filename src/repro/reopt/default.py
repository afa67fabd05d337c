"""The non-adaptive ``Default`` and ``Optimal`` baselines (Section 6.3).

* **Default** is PostgreSQL with its default optimizer: plan once using the
  statistics-based estimator, execute the plan, never look back.
* **Optimal** is PostgreSQL fed the *true* cardinality of every intermediate
  result: the optimizer is driven by the :class:`TrueCardinalityOracle`,
  which counts every sub-join exactly with the executor's operators, so the
  plan it picks is optimal with respect to perfect estimates.  Its oracle
  cost is not charged to the measured execution time (it is an idealized
  upper bound, exactly as in the paper).
"""

from __future__ import annotations

from repro.executor.executor import Executor
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.oracle import OracleCardinalityEstimator, TrueCardinalityOracle
from repro.reopt.base import BaselineConfig, NonAdaptiveBaseline
from repro.storage.database import Database


class DefaultBaseline(NonAdaptiveBaseline):
    """PostgreSQL's default behaviour: one plan from the default estimator."""

    name = "Default"


class OptimalBaseline(NonAdaptiveBaseline):
    """The idealized optimizer fed true cardinalities."""

    name = "Optimal"

    def __init__(self, database: Database, optimizer: Optimizer | None = None,
                 executor: Executor | None = None,
                 config: BaselineConfig | None = None,
                 oracle: TrueCardinalityOracle | None = None):
        self.oracle = oracle or TrueCardinalityOracle(database)
        estimator = OracleCardinalityEstimator(database, oracle=self.oracle)
        base_optimizer = optimizer or Optimizer(database)
        super().__init__(database, base_optimizer.with_estimator(estimator),
                         executor=executor, config=config)
