"""Table 4: materialization frequency and memory usage of re-optimization.

For every re-optimization algorithm the paper reports (a) the average memory
used per materialized subquery, (b) the average number of materializations
per query, and (c) the total materialization memory per query.  The paper
finds QuerySplit with the smallest per-subquery footprint (FK-Center keeps
subqueries non-expanding) and the second-lowest materialization frequency
(only Reopt's over-conservative trigger materializes less); here IEF
materializes less often than QuerySplit (see EXPERIMENTS.md).
"""

from __future__ import annotations

from repro.bench.artifacts import ExperimentResult
from repro.bench.harness import HarnessConfig, run_workload
from repro.bench.reporting import format_table
from repro.experiments.registry import experiment
from repro.report import WorkloadResult
from repro.reopt.registry import REOPT_ALGORITHMS
from repro.storage.database import IndexConfig
from repro.workloads import dbcache
from repro.workloads.job_queries import JOB_FAMILY_NUMBERS, job_queries

PAPER_ARTIFACT = "Table 4 (materialization frequency and memory)"

MB = 1024.0 * 1024.0


@experiment(artifact=PAPER_ARTIFACT, shard_param="families",
            shard_universe=JOB_FAMILY_NUMBERS)
def run(scale: float = 1.0, families: list[int] | None = None,
        algorithms: tuple[str, ...] = REOPT_ALGORITHMS,
        timeout_seconds: float = 30.0,
        verbose: bool = True) -> ExperimentResult:
    """Compute the Table 4 metrics.

    ``result.data`` maps each algorithm to its metric dict (average memory
    per subquery, materialization frequency, total memory per query).
    """
    database = dbcache.build("imdb", scale=scale, index_config=IndexConfig.PK_FK)
    queries = job_queries(families=families)
    config = HarnessConfig(timeout_seconds=timeout_seconds)

    workloads: dict[str, WorkloadResult] = {}
    metrics: dict[str, dict[str, float]] = {}
    for algorithm in algorithms:
        result = run_workload(database, queries, algorithm, config)
        workloads[algorithm] = result
        metrics[algorithm] = _metrics(result)

    rows = [
        [name,
         f"{m['avg_mem_per_subquery_mb']:.2f}",
         f"{m['avg_materializations_per_query']:.2f}",
         f"{m['total_mem_per_query_mb']:.2f}"]
        for name, m in metrics.items()
    ]
    return ExperimentResult(
        data=metrics,
        workloads=workloads,
        summary={"metrics": metrics},
        tables=[format_table(
            ["Algorithm", "Avg mem / subquery (MB)", "Avg mat. freq / query",
             "Total mem / query (MB)"],
            rows, title="Table 4: materialization frequency and memory usage")],
    )


def _metrics(result: WorkloadResult) -> dict[str, float]:
    num_queries = max(len(result.reports), 1)
    total_materializations = sum(r.materializations for r in result.reports)
    total_bytes = sum(r.materialized_bytes for r in result.reports)
    return {
        "avg_mem_per_subquery_mb": (total_bytes / total_materializations / MB
                                    if total_materializations else 0.0),
        "avg_materializations_per_query": total_materializations / num_queries,
        "total_mem_per_query_mb": total_bytes / num_queries / MB,
        "total_time_s": result.total_time,
    }
