"""Algorithm registry: build any evaluated algorithm by name.

The bench harness and the experiment scripts refer to algorithms by the names
used in the paper's figures (``QuerySplit``, ``Optimal``, ``Default``,
``Reopt``, ``Pop``, ``IEF``, ``Perron19``, ``USE``, ``Pessi.``, ``FS``,
``OptRange``, ``NeuroCard``, ``DeepDB``, ``MSCN``).  :func:`make_algorithm`
wires up the right optimizer, estimator, and driver for each.
"""

from __future__ import annotations

from repro.core.qsa import QSAStrategy
from repro.core.ssa import CostFunction
from repro.executor.executor import Executor
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.oracle import TrueCardinalityOracle
from repro.reopt.base import BaselineConfig
from repro.reopt.default import DefaultBaseline, OptimalBaseline
from repro.reopt.ief import IEFBaseline
from repro.reopt.kabra import ReoptBaseline
from repro.reopt.perron import Perron19Baseline
from repro.reopt.pop import PopBaseline
from repro.reopt.robust_baselines import (
    FSBaseline,
    LearnedCEBaseline,
    OptRangeBaseline,
    PessimisticBaseline,
    USEBaseline,
)
from repro.storage.database import Database

#: Names of the re-optimization algorithms (used by Table 4 / Figure 15).
REOPT_ALGORITHMS = ("QuerySplit", "Reopt", "Pop", "IEF", "Perron19")

#: All algorithm names accepted by :func:`make_algorithm`.
ALGORITHM_NAMES = (
    "QuerySplit", "Optimal", "Default", "Reopt", "Pop", "IEF", "Perron19",
    "USE", "Pessi.", "FS", "OptRange", "NeuroCard", "DeepDB", "MSCN",
)


def make_algorithm(name: str, database: Database,
                   collect_statistics: bool = True,
                   timeout_seconds: float | None = None,
                   qsa_strategy: QSAStrategy = QSAStrategy.FK_CENTER,
                   cost_function: CostFunction = CostFunction.PHI4,
                   estimator=None,
                   subplan_cache=None):
    """Instantiate the algorithm called ``name`` over ``database``.

    Parameters
    ----------
    name:
        One of :data:`ALGORITHM_NAMES`.
    database:
        The loaded benchmark database.
    collect_statistics:
        Whether materialized intermediate results are analyzed (Figure 15).
    timeout_seconds:
        Per-query execution-time budget (the paper uses 1000 s).
    qsa_strategy, cost_function:
        QuerySplit policy knobs (Table 3).
    estimator:
        Optional cardinality estimator override for the driving optimizer
        (used by the robustness study of Figure 10).
    subplan_cache:
        Optional engine-level
        :class:`~repro.executor.subplan_cache.SubplanCache` shared across
        algorithms: the executor stores/reuses executed subtrees by
        canonical signature.  The true-cardinality oracle of the
        oracle-backed algorithms does not use it.  Leave ``None`` (the
        default) to keep every algorithm's execution fully independent.
    """
    optimizer = Optimizer(database)
    if estimator is not None:
        optimizer = optimizer.with_estimator(estimator)
    executor = Executor(database, subplan_cache=subplan_cache)
    baseline_config = BaselineConfig(collect_statistics=collect_statistics,
                                     timeout_seconds=timeout_seconds)

    if name == "QuerySplit":
        # Imported here: the splitter builds on repro.reopt.base, whose
        # package imports this module.
        from repro.core.splitter import QuerySplitConfig, QuerySplitExecutor

        config = QuerySplitConfig(
            qsa_strategy=qsa_strategy,
            cost_function=cost_function,
            collect_statistics=collect_statistics,
            timeout_seconds=timeout_seconds,
        )
        return QuerySplitExecutor(database, optimizer, executor=executor,
                                  config=config)
    if name == "Default":
        return DefaultBaseline(database, optimizer, executor=executor,
                               config=baseline_config)
    if name == "Optimal":
        oracle = TrueCardinalityOracle(database)
        return OptimalBaseline(database, optimizer, executor=executor,
                               config=baseline_config, oracle=oracle)
    if name == "Reopt":
        return ReoptBaseline(database, optimizer, executor=executor,
                             config=baseline_config)
    if name == "Pop":
        return PopBaseline(database, optimizer, executor=executor,
                           config=baseline_config)
    if name == "IEF":
        return IEFBaseline(database, optimizer, executor=executor,
                           config=baseline_config)
    if name == "Perron19":
        return Perron19Baseline(database, optimizer, executor=executor,
                                config=baseline_config)
    if name == "USE":
        return USEBaseline(database, executor=executor, config=baseline_config)
    if name == "Pessi.":
        return PessimisticBaseline(database, optimizer, executor=executor,
                                   config=baseline_config)
    if name == "FS":
        return FSBaseline(database, executor=executor, config=baseline_config)
    if name == "OptRange":
        return OptRangeBaseline(database, optimizer, executor=executor,
                                config=baseline_config)
    if name in ("NeuroCard", "DeepDB", "MSCN"):
        oracle = TrueCardinalityOracle(database)
        return LearnedCEBaseline(database, model=name.lower(),
                                 optimizer=optimizer, executor=executor,
                                 config=baseline_config, oracle=oracle)
    raise ValueError(f"unknown algorithm {name!r}; known: {ALGORITHM_NAMES}")
