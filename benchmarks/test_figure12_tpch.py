"""Benchmark: reproduce Figure 12 (TPC-H end-to-end)."""

from repro.experiments import figure12_tpch
from benchmarks.conftest import (
    full_mode,
    median_total_times,
    run_rounds,
    summed_result_rows,
)

REOPT_BASELINES = ("Reopt", "Pop", "IEF", "Perron19")


def test_figure12_tpch(benchmark, scale):
    query_numbers = None if full_mode() else [1, 3, 4, 5, 6, 10, 12, 14, 18, 19]
    rounds = run_rounds(benchmark, lambda: figure12_tpch.run(
        scale=scale, families=query_numbers, verbose=True).data)
    for index_setup, per_algorithm in rounds[0].items():
        # Paper shape: on the star schema all approaches land close together;
        # QuerySplit must not do more work than the heaviest re-opt baseline.
        assert summed_result_rows(per_algorithm["QuerySplit"]) <= max(
            summed_result_rows(per_algorithm[n]) for n in REOPT_BASELINES
        ), index_setup
        if full_mode():
            times = median_total_times(rounds, index_setup)
            assert times["QuerySplit"] <= max(times[n] for n in REOPT_BASELINES)
