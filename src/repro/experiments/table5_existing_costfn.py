"""Table 5: existing re-optimization algorithms with QuerySplit's cost functions.

The paper asks whether the Phi cost functions alone explain QuerySplit's
advantage: each baseline is modified to *order* its candidate materialization
points by Phi instead of its native policy.  The answer is no -- a better
ordering cannot compensate for a subquery division inherited from the global
plan.

We reproduce the study by replacing each baseline's checkpoint rule with one
that re-sorts its checkpoints by the Phi score of the corresponding sub-plan
(estimated cost times estimated cardinality, etc.).
"""

from __future__ import annotations

import dataclasses

from repro.bench.artifacts import ExperimentResult
from repro.bench.reporting import format_seconds, format_table
from repro.core.ssa import SSA_FUNCTIONS, CostFunction
from repro.experiments.registry import experiment
from repro.optimizer.optimizer import Optimizer
from repro.report import WorkloadResult
from repro.reopt.base import BaselineConfig, ReoptimizerBase
from repro.reopt.registry import ALGORITHMS, Algorithm
from repro.storage.database import IndexConfig
from repro.workloads import dbcache
from repro.workloads.job_queries import JOB_FAMILY_NUMBERS, job_queries

PAPER_ARTIFACT = "Table 5 (existing re-optimizers with Phi cost functions)"

_BASELINES = ("Reopt", "Pop", "IEF", "Perron19")

COST_FUNCTIONS = (CostFunction.PHI1, CostFunction.PHI2, CostFunction.PHI3,
                  CostFunction.PHI4, CostFunction.PHI5)


def _with_phi_ordering(row: Algorithm, cost_function: CostFunction) -> Algorithm:
    """``row`` with its checkpoints ordered by Phi."""
    scorer = SSA_FUNCTIONS[cost_function]
    checkpoints = row.checkpoints

    def ordered(plan, schema):
        return sorted(checkpoints(plan, schema),
                      key=lambda node: scorer(node.est_cost, node.est_rows))

    return dataclasses.replace(row, checkpoints=ordered)


@experiment(artifact=PAPER_ARTIFACT, shard_param="families",
            shard_universe=JOB_FAMILY_NUMBERS)
def run(scale: float = 1.0, families: list[int] | None = None,
        algorithms: tuple[str, ...] = _BASELINES,
        cost_functions: tuple[CostFunction, ...] = COST_FUNCTIONS,
        timeout_seconds: float = 30.0,
        verbose: bool = True) -> ExperimentResult:
    """Run every baseline x cost-function combination (plus the original).

    ``result.data`` maps ``(algorithm, variant)`` to a
    :class:`~repro.report.WorkloadResult` where ``variant`` is
    ``"original"`` or a Phi name.
    """
    database = dbcache.build("imdb", scale=scale, index_config=IndexConfig.PK_FK)
    queries = job_queries(families=families)
    config = BaselineConfig(timeout_seconds=timeout_seconds)

    results: dict[tuple[str, str], WorkloadResult] = {}
    for algorithm in algorithms:
        row = ALGORITHMS[algorithm]
        variants = {"original": (algorithm, row)}
        for cost_function in cost_functions:
            variants[cost_function.value] = (
                f"{algorithm}+{cost_function.value}",
                _with_phi_ordering(row, cost_function))
        for variant_name, (name, variant) in variants.items():
            result = WorkloadResult(algorithm=f"{algorithm}/{variant_name}")
            runner = ReoptimizerBase(
                name, database, Optimizer(database), config=config,
                checkpoints=variant.checkpoints,
                always_materialize=variant.always_materialize,
                trigger_threshold=variant.trigger_threshold)
            for query in queries:
                result.reports.append(runner.run(query))
            results[(algorithm, variant_name)] = result

    headers = ["SSA \\ Algorithm"] + list(algorithms)
    rows = []
    for variant in [cf.value for cf in cost_functions] + ["original"]:
        row = [variant]
        for algorithm in algorithms:
            row.append(format_seconds(results[(algorithm, variant)].total_time))
        rows.append(row)

    workloads = {f"{alg}/{variant}": res for (alg, variant), res in results.items()}
    return ExperimentResult(
        data=results,
        workloads=workloads,
        tables=[format_table(headers, rows,
                             title="Table 5: existing re-optimizers with Phi orderings")],
    )
