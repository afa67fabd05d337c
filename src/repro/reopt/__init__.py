"""Re-optimization algorithms and baselines.

* :mod:`repro.reopt.base` -- the driver base of every algorithm, QuerySplit
  included (``run``, timeout, materialize step), the plan-once driver and
  the plan-driven re-optimization loop;
* :mod:`repro.reopt.registry` -- :data:`ALGORITHMS`, one row per evaluated
  algorithm (its estimator, enumerator configuration, checkpoint rule and
  re-planning threshold), and :func:`make_algorithm`, which builds a runner
  from a row for the bench harness and experiments.
"""

from repro.report import ExecutionReport, IterationRecord, WorkloadResult
from repro.reopt.base import BaselineConfig, NonAdaptiveBaseline, ReoptimizerBase
from repro.reopt.registry import (
    ALGORITHM_NAMES,
    ALGORITHMS,
    Algorithm,
    make_algorithm,
)

__all__ = [
    "ExecutionReport",
    "IterationRecord",
    "WorkloadResult",
    "BaselineConfig",
    "NonAdaptiveBaseline",
    "ReoptimizerBase",
    "Algorithm",
    "ALGORITHMS",
    "ALGORITHM_NAMES",
    "make_algorithm",
]
