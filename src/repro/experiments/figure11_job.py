"""Figure 11: end-to-end JOB execution time for QuerySplit and all baselines.

The paper's headline result: QuerySplit beats every re-optimization,
robust-query-processing, and learned-CE baseline on the Join Order
Benchmark, lands within a few percent of the Optimal oracle-driven plan, and
the gap widens when foreign-key indexes are available.  Both index
configurations (PK-only, PK+FK) are evaluated.
"""

from __future__ import annotations

from repro.bench.artifacts import ExperimentResult
from repro.experiments._grid import run_grid
from repro.experiments.registry import experiment
from repro.storage.database import IndexConfig
from repro.workloads.job_queries import JOB_FAMILY_NUMBERS, job_queries

PAPER_ARTIFACT = "Figure 11 (JOB end-to-end comparison)"

#: The algorithms shown in Figure 11, in the paper's order.
DEFAULT_ALGORITHMS = (
    "QuerySplit", "Optimal", "Default", "Reopt", "Pop", "IEF", "Perron19",
    "USE", "Pessi.", "FS", "OptRange", "NeuroCard", "DeepDB", "MSCN",
)

#: A cheaper default set for quick runs (skips the oracle-backed baselines).
FAST_ALGORITHMS = (
    "QuerySplit", "Default", "Reopt", "Pop", "IEF", "Perron19", "USE", "FS",
)


@experiment(artifact=PAPER_ARTIFACT, shard_param="families",
            shard_universe=JOB_FAMILY_NUMBERS)
def run(scale: float = 1.0, families: list[int] | None = None,
        algorithms: tuple[str, ...] = FAST_ALGORITHMS,
        index_configs: tuple[IndexConfig, ...] = (IndexConfig.PK_ONLY,
                                                  IndexConfig.PK_FK),
        timeout_seconds: float = 30.0,
        verbose: bool = True) -> ExperimentResult:
    """Run the Figure 11 comparison.

    ``result.data`` maps ``{index_config_name: {algorithm: WorkloadResult}}``.
    """
    return run_grid(
        "imdb", job_queries(families=families), scale=scale,
        algorithms=algorithms, index_configs=index_configs,
        timeout_seconds=timeout_seconds, time_header="JOB execution time",
        title_format="Figure 11: JOB end-to-end time ({index} indexes)")
