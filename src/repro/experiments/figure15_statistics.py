"""Figure 15: collecting statistics on materialized results, or not.

Every re-optimization algorithm is run twice on JOB: once analyzing every
materialized temporary (NDV, MCVs, histograms) and once passing only the row
count to the optimizer, after one untimed pass of its own; the setting
timed first alternates from one algorithm to the next.  The
paper's finding: the answer is algorithm-dependent -- Reopt/Pop/IEF need the
statistics, while Perron19 and QuerySplit barely benefit because their
subqueries are simple (at most two relations, or mostly PK-FK joins whose
estimation only needs row counts).
"""

from __future__ import annotations

from repro.bench.artifacts import ExperimentResult
from repro.bench.harness import HarnessConfig, run_workload
from repro.bench.reporting import format_seconds, format_table
from repro.experiments.registry import experiment
from repro.report import WorkloadResult
from repro.reopt.registry import REOPT_ALGORITHMS
from repro.storage.database import IndexConfig
from repro.workloads import dbcache
from repro.workloads.job_queries import JOB_FAMILY_NUMBERS, job_queries

PAPER_ARTIFACT = "Figure 15 (statistics collection on/off)"


@experiment(artifact=PAPER_ARTIFACT, shard_param="families",
            shard_universe=JOB_FAMILY_NUMBERS)
def run(scale: float = 1.0, families: list[int] | None = None,
        algorithms: tuple[str, ...] = REOPT_ALGORITHMS,
        timeout_seconds: float = 30.0,
        verbose: bool = True) -> ExperimentResult:
    """Run each algorithm with and without statistics collection.

    ``result.data`` maps ``(algorithm, collect_statistics)`` to the
    corresponding :class:`~repro.report.WorkloadResult`.
    """
    database = dbcache.build("imdb", scale=scale, index_config=IndexConfig.PK_FK)
    queries = job_queries(families=families)

    def config(collect: bool) -> HarnessConfig:
        return HarnessConfig(timeout_seconds=timeout_seconds,
                             collect_statistics=collect)

    results: dict[tuple[str, bool], WorkloadResult] = {}
    for i, algorithm in enumerate(algorithms):
        first, second = (True, False) if i % 2 == 0 else (False, True)
        # An untimed pass of the policy first: its first run in a process
        # costs more whatever the setting (IEF on JOB 31c at scale 0.5:
        # 3.7 s, then 2.0-2.2 s).  Run under the setting timed second, it
        # puts a run under the other setting before each timed one; which
        # setting is timed first alternates from one policy to the next.
        run_workload(database, queries, algorithm, config(second))
        for collect in (first, second):
            results[(algorithm, collect)] = run_workload(
                database, queries, algorithm, config(collect))
    results = {(algorithm, collect): results[(algorithm, collect)]
               for algorithm in algorithms for collect in (True, False)}

    rows = []
    for algorithm in algorithms:
        with_stats = results[(algorithm, True)]
        without = results[(algorithm, False)]
        rows.append([
            algorithm,
            format_seconds(with_stats.total_time),
            format_seconds(without.total_time),
        ])

    workloads = {f"{alg}/{'stats' if collect else 'rowcount'}": res
                 for (alg, collect), res in results.items()}
    return ExperimentResult(
        data=results,
        workloads=workloads,
        tables=[format_table(
            ["Algorithm", "With statistics", "Row count only"], rows,
            title="Figure 15: JOB time with and without runtime statistics")],
    )
