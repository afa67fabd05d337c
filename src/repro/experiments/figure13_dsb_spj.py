"""Figure 13: DSB SPJ queries.

DSB keeps the star schema of TPC-DS but injects data skew, so estimates are
wrong even though all joins are PK-FK.  The paper shows QuerySplit close to
Optimal, with the learned estimators becoming more competitive than on JOB
because DSB filters are mostly numeric.
"""

from __future__ import annotations

from repro.bench.artifacts import ExperimentResult
from repro.experiments._grid import numbered, run_grid
from repro.experiments.registry import experiment
from repro.storage.database import IndexConfig
from repro.workloads.dsb import DSB_SPJ_NUMBERS, dsb_spj_queries

PAPER_ARTIFACT = "Figure 13 (DSB SPJ queries)"

DEFAULT_ALGORITHMS = ("QuerySplit", "Default", "Reopt", "Pop", "IEF",
                      "Perron19", "USE", "Pessi.", "FS")


@experiment(artifact=PAPER_ARTIFACT, shard_param="families",
            shard_universe=DSB_SPJ_NUMBERS)
def run(scale: float = 1.0, families: list[int] | None = None,
        algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
        index_configs: tuple[IndexConfig, ...] = (IndexConfig.PK_ONLY,
                                                  IndexConfig.PK_FK),
        timeout_seconds: float = 60.0,
        verbose: bool = True) -> ExperimentResult:
    """Run the DSB SPJ comparison.

    ``families`` restricts to the given DSB SPJ query numbers (1..15);
    ``result.data`` maps ``{index_config: {algorithm: WorkloadResult}}``.
    """
    return run_grid(
        "dsb", numbered(dsb_spj_queries(), "dsb-spj-{}", families), scale=scale,
        algorithms=algorithms, index_configs=index_configs,
        timeout_seconds=timeout_seconds,
        time_header="DSB SPJ execution time",
        title_format="Figure 13: DSB SPJ queries ({index} indexes)")
