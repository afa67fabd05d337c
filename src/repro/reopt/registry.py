"""Algorithm registry: every evaluated algorithm is one row of :data:`ALGORITHMS`.

A row names an algorithm's planner (estimator and enumerator configuration)
and, for a re-optimizer, where it checkpoints and when it re-plans.
:func:`make_algorithm` builds QuerySplit's own driver, or one
:class:`~repro.optimizer.optimizer.Optimizer` and one of the two drivers of
:mod:`repro.reopt.base`.  The re-optimizers (Section 6.3, Appendix B):
Reopt (Kabra & DeWitt) checks pipeline breakers and materializes only on a
trigger, so an all-nested-loop plan never re-plans; Pop (Markl et al.)
materializes every join; IEF (Neumann & Galindo-Legaria) materializes the
most uncertain sub-plan and always re-plans; Perron19 (ICDE 2019)
materializes every join and re-plans past a q-error of 32; OptRange (Wolf
et al.) re-plans outside a 4x window around the estimate.  The rest plan
once: Default, Optimal (true cardinalities, oracle cost not charged),
Pessi. (upper-bound estimates), USE (upper bounds, no nested loops), FS
(cost mixed with the cost at 8x cardinalities) and the simulated learned
estimators NeuroCard, DeepDB and MSCN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.catalog.schema import Schema
from repro.core.qsa import QSAStrategy
from repro.core.ssa import CostFunction
from repro.executor.executor import Executor
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.join_enum import EnumeratorConfig
from repro.optimizer.learned import LearnedCardinalityEstimator
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.oracle import OracleCardinalityEstimator, TrueCardinalityOracle
from repro.optimizer.pessimistic import PessimisticCardinalityEstimator
from repro.plan.physical import JoinNode, PhysicalPlan, PlanNode, ScanNode
from repro.reopt.base import (
    BaselineConfig,
    Checkpoints,
    NonAdaptiveBaseline,
    ReoptimizerBase,
)
from repro.storage.database import Database


# ----------------------------------------------------------------------
# Checkpoint rules
# ----------------------------------------------------------------------
def pipeline_breakers(plan: PhysicalPlan, schema: Schema) -> list[JoinNode]:
    """Reopt and OptRange: the joins that end a pipeline (hash builds)."""
    return [node for node in plan.join_nodes() if node.is_pipeline_breaker]


def every_join(plan: PhysicalPlan, schema: Schema) -> list[JoinNode]:
    """Pop and Perron19: every join of the plan."""
    return list(plan.join_nodes())


#: IEF's uncertainty of a non-PK-FK join predicate, a PK-FK one and a filter.
NON_FK_JOIN_WEIGHT, FK_JOIN_WEIGHT, FILTER_WEIGHT = 3.0, 0.5, 1.0


def most_uncertain_join(plan: PhysicalPlan, schema: Schema) -> list[JoinNode]:
    """IEF: the non-root join whose subtree is least certain (its join
    predicates' and base scans' filters' weights summed; a temporary is
    exact), first in execution order among equals; none if all are exact."""
    joins = [node for node in plan.join_nodes() if node is not plan.root]
    scores = [_uncertainty(node, schema) for node in joins]
    best = max(scores, default=0.0)
    return [joins[scores.index(best)]] if best > 0.0 else []


def _uncertainty(node: PlanNode, schema: Schema) -> float:
    if isinstance(node, ScanNode):
        return 0.0 if node.relation.is_temp else FILTER_WEIGHT * len(node.filters)
    score = 0.0
    for pred in node.predicates:
        score += FK_JOIN_WEIGHT if _is_fk_join(node, pred, schema) else NON_FK_JOIN_WEIGHT
    for child in node.children():
        score += _uncertainty(child, schema)
    return score


def _is_fk_join(node: JoinNode, pred, schema: Schema) -> bool:
    """A PK-FK predicate, or one with a temporary side (exact, so certain)."""
    tables = {alias: None if leaf.is_temp else leaf.table_name
              for leaf in node.leaf_relations() for alias in leaf.covered_aliases}
    left, right = tables.get(pred.left.alias), tables.get(pred.right.alias)
    return left is None or right is None or schema.join_kind(
        left, pred.left.column, right, pred.right.column) == "pk-fk"


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Algorithm:
    """What one evaluated algorithm is."""

    #: Builds the estimator from ``(database, oracle)``; ``None`` is the
    #: default estimator, which ``make_algorithm(estimator=...)`` may replace.
    estimator: Callable[..., CardinalityEstimator] | None = None
    #: The estimator reads a :class:`TrueCardinalityOracle`.
    oracle: bool = False
    config: EnumeratorConfig = EnumeratorConfig()
    #: Where the re-optimizer checkpoints; ``None`` plans once and executes
    #: once.
    checkpoints: Checkpoints | None = None
    #: Materialize at every checkpoint, even without a trigger.
    always_materialize: bool = False
    #: q-error above which the remaining query is re-planned.
    trigger_threshold: float = 2.0


def _pessimistic(database: Database, _oracle) -> CardinalityEstimator:
    return PessimisticCardinalityEstimator(database)


def _learned(model: str) -> Callable[..., CardinalityEstimator]:
    return lambda database, oracle: LearnedCardinalityEstimator(
        database, model=model, oracle=oracle)


#: Every algorithm :func:`make_algorithm` accepts, in the paper's order.
ALGORITHMS: dict[str, Algorithm] = {
    # Its own driver (repro.core.splitter); the row names its planner only.
    "QuerySplit": Algorithm(),
    "Optimal": Algorithm(estimator=OracleCardinalityEstimator, oracle=True),
    "Default": Algorithm(),
    "Reopt": Algorithm(checkpoints=pipeline_breakers),
    "Pop": Algorithm(checkpoints=every_join, always_materialize=True),
    # Its checkpoints exist to remove uncertainty, not to validate a
    # threshold: every materialization re-plans.
    "IEF": Algorithm(checkpoints=most_uncertain_join, always_materialize=True,
                     trigger_threshold=1.0),
    "Perron19": Algorithm(checkpoints=every_join, always_materialize=True,
                          trigger_threshold=32.0),
    "USE": Algorithm(estimator=_pessimistic, config=EnumeratorConfig(
        enable_index_nl=False, enable_nl=False)),
    "Pessi.": Algorithm(estimator=_pessimistic),
    "FS": Algorithm(config=EnumeratorConfig(robustness_blowup=8.0,
                                            robustness_weight=0.5)),
    "OptRange": Algorithm(checkpoints=pipeline_breakers, trigger_threshold=4.0),
    "NeuroCard": Algorithm(estimator=_learned("neurocard"), oracle=True),
    "DeepDB": Algorithm(estimator=_learned("deepdb"), oracle=True),
    "MSCN": Algorithm(estimator=_learned("mscn"), oracle=True),
}

#: All algorithm names accepted by :func:`make_algorithm`.
ALGORITHM_NAMES = tuple(ALGORITHMS)

#: Names of the re-optimization algorithms (used by Table 4 / Figure 15).
REOPT_ALGORITHMS = ("QuerySplit", "Reopt", "Pop", "IEF", "Perron19")


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
        (used by the robustness study of Figure 10).  Only a row that plans
        with the default estimator takes one; the others raise
        ``ValueError``.
    subplan_cache:
        Optional engine-level
        :class:`~repro.executor.subplan_cache.SubplanCache` shared across
        algorithms: the executor stores/reuses executed subtrees by
        canonical signature.  The true-cardinality oracle of the
        oracle-backed algorithms does not use it.  Leave ``None`` (the
        default) to keep every algorithm's execution fully independent.
    """
    row = ALGORITHMS.get(name)
    if row is None:
        raise ValueError(f"unknown algorithm {name!r}; known: {ALGORITHM_NAMES}")
    oracle = TrueCardinalityOracle(database) if row.oracle else None
    if row.estimator is not None:
        if estimator is not None:
            raise ValueError(f"{name} plans with its own estimator; "
                             "it takes no estimator override")
        estimator = row.estimator(database, oracle)
    optimizer = Optimizer(database, estimator=estimator, config=row.config)
    executor = Executor(database, subplan_cache=subplan_cache)

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
    config = BaselineConfig(collect_statistics=collect_statistics,
                            timeout_seconds=timeout_seconds)
    if row.checkpoints is None:
        return NonAdaptiveBaseline(name, database, optimizer, executor, config,
                                   oracle)
    return ReoptimizerBase(name, database, optimizer, executor, config, oracle,
                           checkpoints=row.checkpoints,
                           always_materialize=row.always_materialize,
                           trigger_threshold=row.trigger_threshold)
