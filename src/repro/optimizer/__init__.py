"""Query optimizer: cardinality estimation, cost model, and join enumeration.

This subsystem reproduces the parts of PostgreSQL's planner the paper relies
on:

* a **default cardinality estimator** built on per-column statistics and the
  independence assumption (:mod:`repro.optimizer.cardinality`);
* a **true-cardinality oracle** used for the "Optimal" baseline, which
  counts sub-joins exactly with the executor's own scan and hash join
  (:mod:`repro.optimizer.oracle`);
* **controlled error injection** for the robustness study of Figure 10
  (:mod:`repro.optimizer.injection`);
* **learned / pessimistic estimators** standing in for NeuroCard, DeepDB,
  MSCN, USE, and Pessimistic CE (:mod:`repro.optimizer.learned`,
  :mod:`repro.optimizer.pessimistic`);
* a **cost model** (:mod:`repro.optimizer.cost`) and a dynamic-programming
  **join enumerator** with a greedy fallback (:mod:`repro.optimizer.join_enum`);
* robust plan selection (FS) and optimality ranges (OptRange)
  (:mod:`repro.optimizer.robust`).
"""

from repro.optimizer.cardinality import CardinalityEstimator, DefaultCardinalityEstimator
from repro.optimizer.cost import CostModel, CostParameters
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.optimizer.oracle import TrueCardinalityOracle, OracleCardinalityEstimator
from repro.optimizer.injection import NoisyCardinalityEstimator
from repro.optimizer.learned import LearnedCardinalityEstimator
from repro.optimizer.pessimistic import PessimisticCardinalityEstimator

__all__ = [
    "CardinalityEstimator",
    "DefaultCardinalityEstimator",
    "CostModel",
    "CostParameters",
    "Optimizer",
    "OptimizerConfig",
    "TrueCardinalityOracle",
    "OracleCardinalityEstimator",
    "NoisyCardinalityEstimator",
    "LearnedCardinalityEstimator",
    "PessimisticCardinalityEstimator",
]
