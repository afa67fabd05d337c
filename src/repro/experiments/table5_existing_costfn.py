"""Table 5: existing re-optimization algorithms with QuerySplit's cost functions.

The paper asks whether the Phi cost functions alone explain QuerySplit's
advantage: each baseline is modified to *order* its candidate materialization
points by Phi instead of its native policy.  The answer is no -- a better
ordering cannot compensate for a subquery division inherited from the global
plan.

We reproduce the study by wrapping each baseline with an ordering shim that
re-sorts its materialization points by the Phi score of the corresponding
sub-plan (estimated cost times estimated cardinality, etc.).
"""

from __future__ import annotations

from repro.bench.artifacts import ExperimentResult
from repro.bench.reporting import format_seconds, format_table
from repro.core.ssa import SSA_FUNCTIONS, CostFunction
from repro.experiments.registry import experiment
from repro.optimizer.optimizer import Optimizer
from repro.plan.physical import JoinNode, PhysicalPlan
from repro.report import WorkloadResult
from repro.reopt.base import BaselineConfig
from repro.reopt.ief import IEFBaseline
from repro.reopt.kabra import ReoptBaseline
from repro.reopt.perron import Perron19Baseline
from repro.reopt.pop import PopBaseline
from repro.storage.database import IndexConfig
from repro.workloads import dbcache
from repro.workloads.job_queries import JOB_FAMILY_NUMBERS, job_queries

PAPER_ARTIFACT = "Table 5 (existing re-optimizers with Phi cost functions)"

_BASELINES = {
    "Reopt": ReoptBaseline,
    "Pop": PopBaseline,
    "IEF": IEFBaseline,
    "Perron19": Perron19Baseline,
}

COST_FUNCTIONS = (CostFunction.PHI1, CostFunction.PHI2, CostFunction.PHI3,
                  CostFunction.PHI4, CostFunction.PHI5)


def _with_phi_ordering(baseline_cls, cost_function: CostFunction):
    """Subclass a baseline so its materialization points are ordered by Phi."""
    scorer = SSA_FUNCTIONS[cost_function]

    class PhiOrderedBaseline(baseline_cls):
        name = f"{baseline_cls.name}+{cost_function.value}"

        def materialization_points(self, plan: PhysicalPlan) -> list[JoinNode]:
            points = super().materialization_points(plan)
            return sorted(points,
                          key=lambda node: scorer(node.est_cost, node.est_rows))

    return PhiOrderedBaseline


@experiment(artifact=PAPER_ARTIFACT, shard_param="families",
            shard_universe=JOB_FAMILY_NUMBERS)
def run(scale: float = 1.0, families: list[int] | None = None,
        algorithms: tuple[str, ...] = tuple(_BASELINES),
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
        baseline_cls = _BASELINES[algorithm]
        variants = {"original": baseline_cls}
        for cost_function in cost_functions:
            variants[cost_function.value] = _with_phi_ordering(baseline_cls,
                                                               cost_function)
        for variant_name, cls in variants.items():
            result = WorkloadResult(algorithm=f"{algorithm}/{variant_name}")
            runner = cls(database, Optimizer(database), config=config)
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
