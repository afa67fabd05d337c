"""Robust query processing and learned-CE baselines (Section 6.3).

* **USE** -- upper-bound sketch estimation, nested-loop joins disabled,
  non-adaptive execution;
* **Pessi.** -- pessimistic (upper bound) cardinality estimation with the
  standard plan search;
* **FS** -- robust plan selection: plans are ranked by a mix of their
  estimated cost and the cost they would have under inflated cardinalities;
* **OptRange** -- optimality ranges: execution checkpoints at pipeline
  breakers re-plan only when the observed cardinality leaves the plan's
  validity window;
* **NeuroCard / DeepDB / MSCN** -- simulated learned estimators (accurate on
  numeric predicates, default fallback on string predicates).
"""

from __future__ import annotations

from repro.executor.executor import Executor
from repro.optimizer.learned import LearnedCardinalityEstimator
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.oracle import TrueCardinalityOracle
from repro.optimizer.pessimistic import PessimisticCardinalityEstimator
from repro.optimizer.robust import fs_config, use_config
from repro.plan.physical import JoinNode, PhysicalPlan
from repro.reopt.base import BaselineConfig, NonAdaptiveBaseline, ReoptimizerBase
from repro.storage.database import Database


class PessimisticBaseline(NonAdaptiveBaseline):
    """Non-adaptive execution with pessimistic (upper-bound) estimation."""

    name = "Pessi."

    def __init__(self, database: Database, optimizer: Optimizer | None = None,
                 executor: Executor | None = None,
                 config: BaselineConfig | None = None):
        base = optimizer or Optimizer(database)
        estimator = PessimisticCardinalityEstimator(database)
        super().__init__(database, base.with_estimator(estimator),
                         executor=executor, config=config)


class USEBaseline(NonAdaptiveBaseline):
    """USE: upper-bound estimation and no nested-loop joins (non-adaptive)."""

    name = "USE"

    def __init__(self, database: Database, optimizer: Optimizer | None = None,
                 executor: Executor | None = None,
                 config: BaselineConfig | None = None):
        estimator = PessimisticCardinalityEstimator(database)
        use_optimizer = Optimizer(database, estimator=estimator, config=use_config())
        super().__init__(database, use_optimizer, executor=executor, config=config)


class FSBaseline(NonAdaptiveBaseline):
    """FS: cost/robustness trade-off during plan selection (non-adaptive)."""

    name = "FS"

    def __init__(self, database: Database, optimizer: Optimizer | None = None,
                 executor: Executor | None = None,
                 config: BaselineConfig | None = None):
        fs_optimizer = Optimizer(database, config=fs_config())
        super().__init__(database, fs_optimizer, executor=executor, config=config)


class OptRangeBaseline(ReoptimizerBase):
    """OptRange: re-plan only when an observation leaves the optimality range."""

    name = "OptRange"
    always_materialize = False
    #: The optimality window is approximated as [estimate/4, estimate*4].
    trigger_threshold = 4.0

    def materialization_points(self, plan: PhysicalPlan) -> list[JoinNode]:
        return [node for node in plan.join_nodes() if node.is_pipeline_breaker]


class LearnedCEBaseline(NonAdaptiveBaseline):
    """Non-adaptive execution driven by a simulated learned estimator."""

    def __init__(self, database: Database, model: str = "neurocard",
                 optimizer: Optimizer | None = None,
                 executor: Executor | None = None,
                 config: BaselineConfig | None = None,
                 oracle: TrueCardinalityOracle | None = None):
        self.name = {"neurocard": "NeuroCard", "deepdb": "DeepDB",
                     "mscn": "MSCN"}.get(model, model)
        self.oracle = oracle or TrueCardinalityOracle(database)
        estimator = LearnedCardinalityEstimator(database, model=model,
                                                oracle=self.oracle)
        base = optimizer or Optimizer(database)
        super().__init__(database, base.with_estimator(estimator),
                         executor=executor, config=config)
