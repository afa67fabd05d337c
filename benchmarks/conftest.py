"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper at a reduced
scale so the whole suite finishes in minutes.  Two environment variables
control fidelity:

* ``REPRO_BENCH_SCALE``    -- data scale factor (default 0.5);
* ``REPRO_BENCH_FULL=1``   -- run the full query sets and algorithm lists
  (otherwise a representative subset is used).

The printed output of each benchmark is the reproduced table, so running
``pytest benchmarks/ --benchmark-only -s`` shows the paper artifacts inline.

Paper-shape assertions come in two kinds.  Counts that repeat exactly
(summed intermediate rows, materialized bytes) are asserted on every run.
Wall-clock order is asserted only in full mode, on medians over
:data:`WALL_CLOCK_ROUNDS` warm rounds, because single-run totals of a few
milliseconds per query do not repeat.
"""

import os
import statistics

import pytest

#: Timed rounds (after one warm-up) behind every full-mode wall-clock check.
WALL_CLOCK_ROUNDS = 5


def bench_scale() -> float:
    """Data scale factor used by the benchmarks."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


def full_mode() -> bool:
    """True when the full (paper-sized) configuration was requested."""
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def bench_families() -> list[int] | None:
    """JOB families to run (None = all 31 families / 91 queries)."""
    if full_mode():
        return None
    return [1, 2, 5, 6, 9, 11, 14, 15, 17, 20, 23, 28]


def run_rounds(benchmark, run) -> list:
    """Every timed round's ``run()`` result: one round, or in full mode
    :data:`WALL_CLOCK_ROUNDS` rounds after an untimed warm-up."""
    results = []
    rounds = WALL_CLOCK_ROUNDS if full_mode() else 1
    benchmark.pedantic(lambda: results.append(run()), rounds=rounds,
                       iterations=1, warmup_rounds=int(full_mode()))
    return results[-rounds:]


def summed_result_rows(workload) -> int:
    """Rows of every executed unit (subquery or subplan) of a workload."""
    return sum(record.result_rows for report in workload.reports
               for record in report.iterations)


def summed_materialized_bytes(workload) -> int:
    """Bytes a workload wrote to temporary tables."""
    return sum(report.materialized_bytes for report in workload.reports)


def median_total_times(rounds: list, index_setup: str) -> dict[str, float]:
    """Median ``total_time`` per algorithm over the rounds of one setup."""
    return {name: statistics.median(data[index_setup][name].total_time
                                    for data in rounds)
            for name in rounds[0][index_setup]}


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()


@pytest.fixture(scope="session")
def families() -> list[int] | None:
    return bench_families()
