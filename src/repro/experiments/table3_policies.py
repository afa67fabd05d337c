"""Table 3: JOB execution time for every QSA x SSA policy combination.

QuerySplit is run with each subquery-generation strategy (FK-Center,
PK-Center, MinSubquery) combined with each subquery-selection cost function
(Phi1..Phi5 and the global_deep baseline).  The paper finds FK-Center + Phi4
to be the best and most robust combination.
"""

from __future__ import annotations

from repro.bench.artifacts import ExperimentResult
from repro.bench.harness import HarnessConfig, run_workload
from repro.bench.reporting import format_seconds, format_table
from repro.executor.subplan_cache import SubplanCache
from repro.core.qsa import QSAStrategy
from repro.core.ssa import CostFunction
from repro.experiments.registry import experiment
from repro.report import WorkloadResult
from repro.storage.database import IndexConfig
from repro.workloads import dbcache
from repro.workloads.job_queries import JOB_FAMILY_NUMBERS, job_queries

PAPER_ARTIFACT = "Table 3 (QSA x SSA policy grid on JOB)"

QSA_ORDER = (QSAStrategy.FK_CENTER, QSAStrategy.PK_CENTER, QSAStrategy.MIN_SUBQUERY)
SSA_ORDER = (CostFunction.PHI1, CostFunction.PHI2, CostFunction.PHI3,
             CostFunction.PHI4, CostFunction.PHI5, CostFunction.GLOBAL_DEEP)

SSA_LABELS = {
    CostFunction.PHI1: "Phi1: C(q)",
    CostFunction.PHI2: "Phi2: C(q)*log(S(q))",
    CostFunction.PHI3: "Phi3: C(q)*sqrt(S(q))",
    CostFunction.PHI4: "Phi4: C(q)*S(q)",
    CostFunction.PHI5: "Phi5: S(q)",
    CostFunction.GLOBAL_DEEP: "global_deep",
}


@experiment(artifact=PAPER_ARTIFACT, shard_param="families",
            shard_universe=JOB_FAMILY_NUMBERS)
def run(scale: float = 1.0, families: list[int] | None = None,
        qsa_strategies: tuple[QSAStrategy, ...] = QSA_ORDER,
        cost_functions: tuple[CostFunction, ...] = SSA_ORDER,
        timeout_seconds: float = 30.0,
        subplan_cache: SubplanCache | None = None,
        verbose: bool = True) -> ExperimentResult:
    """Run the QSA x SSA grid.

    ``result.data`` maps ``(ssa_name, qsa_name)`` to the combination's
    :class:`~repro.report.WorkloadResult`.  Passing a :class:`SubplanCache`
    shares executed subtrees across every policy combination of the grid
    (the policies mostly re-execute the same filtered scans and low joins,
    so the hit rate is substantial).  The default ``None`` keeps every
    combination's measured time independent, preserving the paper's
    per-policy comparison.
    """
    database = dbcache.build("imdb", scale=scale, index_config=IndexConfig.PK_FK)
    queries = job_queries(families=families)

    results: dict[tuple[str, str], WorkloadResult] = {}
    for cost_function in cost_functions:
        for strategy in qsa_strategies:
            config = HarnessConfig(
                timeout_seconds=timeout_seconds,
                qsa_strategy=strategy,
                cost_function=cost_function,
                subplan_cache=subplan_cache,
            )
            result = run_workload(database, queries, "QuerySplit", config)
            results[(cost_function.value, strategy.value)] = result

    headers = ["SSA \\ QSA"] + [s.value for s in qsa_strategies]
    rows = []
    for cost_function in cost_functions:
        row = [SSA_LABELS[cost_function]]
        for strategy in qsa_strategies:
            result = results[(cost_function.value, strategy.value)]
            row.append(format_seconds(result.total_time))
        rows.append(row)
    tables = [format_table(headers, rows,
                           title="Table 3: JOB time per QSA x SSA policy")]
    if subplan_cache is not None:
        tables.append(f"  subplan cache: {subplan_cache.hits} hits / "
                      f"{subplan_cache.misses} misses "
                      f"(hit rate {subplan_cache.hit_rate:.1%})")

    workloads = {f"{ssa}/{qsa}": res for (ssa, qsa), res in results.items()}
    best = best_combination(results)
    return ExperimentResult(
        data=results,
        workloads=workloads,
        summary={"best_combination": {"ssa": best[0], "qsa": best[1]}},
        tables=tables,
    )


def best_combination(results: dict[tuple[str, str], WorkloadResult]) -> tuple[str, str]:
    """The (SSA, QSA) pair with the lowest total execution time."""
    return min(results, key=lambda key: results[key].total_time)
