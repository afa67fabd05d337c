"""Figure 14: DSB non-SPJ queries.

Exercises the non-SPJ extension of Section 3.3: aggregations and unions are
segmented out and each SPJ island is executed by the algorithm under test.
"""

from __future__ import annotations

from repro.bench.artifacts import ExperimentResult
from repro.experiments._grid import numbered, run_grid
from repro.experiments.registry import experiment
from repro.storage.database import IndexConfig
from repro.workloads.dsb import DSB_NONSPJ_NUMBERS, dsb_nonspj_queries

PAPER_ARTIFACT = "Figure 14 (DSB non-SPJ queries)"

DEFAULT_ALGORITHMS = ("QuerySplit", "Default", "Reopt", "Pop", "IEF",
                      "Perron19", "FS", "OptRange")


@experiment(artifact=PAPER_ARTIFACT, shard_param="families",
            shard_universe=DSB_NONSPJ_NUMBERS)
def run(scale: float = 1.0, families: list[int] | None = None,
        algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
        index_configs: tuple[IndexConfig, ...] = (IndexConfig.PK_ONLY,
                                                  IndexConfig.PK_FK),
        timeout_seconds: float = 60.0,
        verbose: bool = True) -> ExperimentResult:
    """Run the DSB non-SPJ comparison.

    ``families`` restricts to the given DSB non-SPJ query numbers (1..10);
    ``result.data`` maps ``{index_config: {algorithm: WorkloadResult}}``.
    """
    return run_grid(
        "dsb", numbered(dsb_nonspj_queries(), "dsb-nonspj-{}", families), scale=scale,
        algorithms=algorithms, index_configs=index_configs,
        timeout_seconds=timeout_seconds,
        time_header="DSB non-SPJ execution time",
        title_format="Figure 14: DSB non-SPJ queries ({index} indexes)")
