"""Figure 12: TPC-H execution time (the star-schema worst case).

TPC-H queries are star-schema and non-SPJ, so FK-Center often produces a
single subquery and QuerySplit rarely re-optimizes; the paper's point is
that QuerySplit's low overhead keeps it at least as fast as the alternatives
even where re-optimization cannot help.
"""

from __future__ import annotations

from repro.bench.artifacts import ExperimentResult
from repro.experiments._grid import numbered, run_grid
from repro.experiments.registry import experiment
from repro.storage.database import IndexConfig
from repro.workloads.tpch import TPCH_QUERY_NUMBERS, tpch_queries

PAPER_ARTIFACT = "Figure 12 (TPC-H end-to-end)"

#: Algorithms shown in Figure 12 (only those supporting non-SPJ queries).
DEFAULT_ALGORITHMS = ("QuerySplit", "Default", "Reopt", "Pop", "IEF",
                      "Perron19", "FS", "OptRange")


@experiment(artifact=PAPER_ARTIFACT, shard_param="families",
            shard_universe=TPCH_QUERY_NUMBERS)
def run(scale: float = 1.0, families: list[int] | None = None,
        algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
        index_configs: tuple[IndexConfig, ...] = (IndexConfig.PK_ONLY,
                                                  IndexConfig.PK_FK),
        timeout_seconds: float = 60.0,
        verbose: bool = True) -> ExperimentResult:
    """Run the TPC-H comparison.

    ``families`` restricts to the given TPC-H query numbers (1..22);
    ``result.data`` maps ``{index_config: {algorithm: WorkloadResult}}``.
    """
    return run_grid(
        "tpch", numbered(tpch_queries(), "tpch-q{}", families), scale=scale,
        algorithms=algorithms, index_configs=index_configs,
        timeout_seconds=timeout_seconds,
        time_header="TPC-H execution time",
        title_format="Figure 12: TPC-H end-to-end time ({index} indexes)")
