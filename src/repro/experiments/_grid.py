"""The index-config x algorithm grid that Figures 11-14 share.

Each of those figures runs one query suite under every algorithm, once per
index configuration, and shows one table per configuration.  Only the
workload, the query suite, the algorithm list and the titles differ.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.artifacts import ExperimentResult
from repro.bench.harness import HarnessConfig, run_workload
from repro.bench.reporting import format_seconds, format_table
from repro.plan.logical import Query
from repro.storage.database import IndexConfig
from repro.workloads import dbcache


def numbered(queries: Sequence[Query], name_format: str,
             numbers: Sequence[int] | None) -> list[Query]:
    """``queries`` restricted to the given query numbers (``None`` = all)."""
    if numbers is None:
        return list(queries)
    wanted = {name_format.format(n) for n in numbers}
    return [query for query in queries if query.name in wanted]


def run_grid(workload: str, queries: Sequence[Query], *, scale: float,
             algorithms: Sequence[str], index_configs: Sequence[IndexConfig],
             timeout_seconds: float, time_header: str,
             title_format: str) -> ExperimentResult:
    """Run ``queries`` on ``workload`` under every index config x algorithm.

    ``result.data`` maps ``{index_config: {algorithm: WorkloadResult}}``;
    workloads are flattened under ``"{index}/{algorithm}"`` keys, and
    ``title_format`` receives ``{index}`` for each config's table.
    """
    config = HarnessConfig(timeout_seconds=timeout_seconds)
    results = {}
    for index_config in index_configs:
        database = dbcache.build(workload, scale=scale, index_config=index_config)
        results[index_config.value] = {
            algorithm: run_workload(database, queries, algorithm, config)
            for algorithm in algorithms
        }
    tables = []
    for index_name, per_algorithm in results.items():
        rows = [[algorithm, format_seconds(res.total_time), res.timeouts or ""]
                for algorithm, res in per_algorithm.items()]
        tables.append(format_table(
            ["Algorithm", time_header, "Timeouts"], rows,
            title=title_format.format(index=index_name)))
    workloads = {f"{index_name}/{algorithm}": res
                 for index_name, per_algorithm in results.items()
                 for algorithm, res in per_algorithm.items()}
    return ExperimentResult(data=results, workloads=workloads, tables=tables)
