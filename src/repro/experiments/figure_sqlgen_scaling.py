"""Generated-workload scaling study (beyond the paper's fixed suites).

The paper evaluates the re-optimization policies only on the fixed JOB /
TPC-H / DSB query sets.  This experiment instead sweeps *seeded random
workloads* of increasing size and join depth produced by
:class:`~repro.workloads.sqlgen.RandomQueryGenerator` over the TPC-H schema,
and reports for every policy:

* total execution time per (join depth, stream length) cell;
* the number of per-query timeouts (out-of-suite robustness);
* the cross-policy :class:`~repro.executor.subplan_cache.SubplanCache` hit
  rate per cell, measured by a *separate* pass that shares one cache
  instance across all policies — the hit rate quantifies how much logical
  work the policies have in common on queries none of them was tuned for.
  The timed runs never share a cache (per the EXPERIMENTS.md accounting
  rules, a shared cache would make measured times depend on run order);
* a per-policy robustness score: the worst-case slowdown relative to the
  best policy of the same cell, taken over all cells.

There is no corresponding paper artifact; see EXPERIMENTS.md for how this
module fits the figure/table mapping.
"""

from __future__ import annotations

from repro.bench.artifacts import ExperimentResult
from repro.bench.harness import HarnessConfig, run_generated
from repro.bench.reporting import format_seconds, format_table
from repro.executor.subplan_cache import SubplanCache
from repro.experiments.registry import experiment
from repro.report import WorkloadResult
from repro.storage.database import IndexConfig
from repro.workloads import dbcache
from repro.workloads.sqlgen import (
    AggregateSamplerConfig,
    JoinSamplerConfig,
    PredicateSamplerConfig,
    RandomQueryGenerator,
)

PAPER_ARTIFACT = "Generated-stream scaling (beyond the paper)"

#: Policies compared by default (those supporting non-SPJ GROUP BY queries,
#: matching the Figure 12/14 algorithm set minus the slowest baselines).
DEFAULT_ALGORITHMS = ("QuerySplit", "Default", "Reopt", "Pop", "IEF", "Perron19")


@experiment(artifact=PAPER_ARTIFACT)
def run(scale: float = 1.0,
        stream_lengths: tuple[int, ...] = (10, 25),
        join_depths: tuple[int, ...] = (2, 4),
        algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
        seed: int = 7,
        fk_only: bool = False,
        group_by_probability: float = 0.2,
        timeout_seconds: float = 30.0,
        measure_cache_overlap: bool = True,
        verbose: bool = True) -> ExperimentResult:
    """Run the sweep over stream length x join depth.

    ``result.data`` is ``{"cells": cells, "robustness": robustness}`` where
    ``cells`` maps ``(max_joins, n)`` to
    ``{"results": {algorithm: WorkloadResult}, "cache_hit_rate": float}``
    and ``robustness`` maps each policy to its worst-case slowdown relative
    to the per-cell best.
    """
    database = dbcache.build("tpch", scale=scale, index_config=IndexConfig.PK_FK)
    cells: dict = {}
    for max_joins in join_depths:
        generator = RandomQueryGenerator(
            database,
            seed=seed,
            join_config=JoinSamplerConfig(max_joins=max_joins, min_joins=1,
                                          fk_only=fk_only),
            predicate_config=PredicateSamplerConfig(max_predicates=3),
            aggregate_config=AggregateSamplerConfig(
                group_by_probability=group_by_probability),
            name_prefix=f"sqlgen-d{max_joins}",
        )
        for n in stream_lengths:
            # Timed runs: no cache sharing, every policy's time independent.
            config = HarnessConfig(timeout_seconds=timeout_seconds)
            per_algorithm: dict[str, WorkloadResult] = {}
            for algorithm in algorithms:
                per_algorithm[algorithm] = run_generated(
                    generator, n, algorithm, config)
            hit_rate = 0.0
            if measure_cache_overlap:
                # Untimed second pass with one shared cache: its hit rate
                # measures the policies' logical-work overlap on this stream.
                cache = SubplanCache()
                overlap_config = HarnessConfig(timeout_seconds=timeout_seconds,
                                               subplan_cache=cache)
                for algorithm in algorithms:
                    run_generated(generator, n, algorithm, overlap_config)
                hit_rate = cache.hit_rate
            cells[(max_joins, n)] = {
                "results": per_algorithm,
                "cache_hit_rate": hit_rate,
            }

    robustness = _worst_case_slowdowns(cells, algorithms)

    headers = (["depth", "queries"] + list(algorithms)
               + ["timeouts", "cache hit rate"])
    rows = []
    for (max_joins, n), cell in cells.items():
        timeouts = sum(r.timeouts for r in cell["results"].values())
        rows.append([max_joins, n]
                    + [format_seconds(cell["results"][a].total_time)
                       for a in algorithms]
                    + [timeouts or "", f"{cell['cache_hit_rate']:.1%}"])
    rob_rows = [[a, f"{robustness[a]:.2f}x"] for a in algorithms]
    tables = [
        format_table(headers, rows,
                     title="Generated-stream scaling (TPC-H schema, "
                           f"seed {seed})"),
        format_table(["Policy", "worst-case slowdown vs. best"], rob_rows,
                     title="Out-of-suite robustness"),
    ]

    workloads = {f"d{max_joins}/n{n}/{algorithm}": res
                 for (max_joins, n), cell in cells.items()
                 for algorithm, res in cell["results"].items()}
    return ExperimentResult(
        data={"cells": cells, "robustness": robustness},
        workloads=workloads,
        summary={"robustness": robustness,
                 "cache_hit_rates": {f"d{d}/n{n}": cell["cache_hit_rate"]
                                     for (d, n), cell in cells.items()}},
        tables=tables,
    )


def _worst_case_slowdowns(cells: dict, algorithms: tuple[str, ...]) -> dict[str, float]:
    """Each policy's worst slowdown factor vs. the per-cell best policy."""
    worst = {algorithm: 1.0 for algorithm in algorithms}
    for cell in cells.values():
        results = cell["results"]
        best = min(result.total_time for result in results.values())
        if best <= 0:
            continue
        for algorithm in algorithms:
            worst[algorithm] = max(worst[algorithm],
                                   results[algorithm].total_time / best)
    return worst
