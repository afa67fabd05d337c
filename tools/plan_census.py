#!/usr/bin/env python3
"""Planner-only ruler: plan every JOB query under one algorithm, execute none.

Builds the synthetic IMDB database at ``--scale``, then plans each SPJ block
of the 91 JOB queries with the optimizer of the ``--algorithm`` row of
``repro.reopt.registry.ALGORITHMS`` (default ``Default``), ``--repeat``
times.  Prints one row per relation count -- how many blocks
have that many relations and the median microseconds per plan over all of
their timed plans -- then a total row and one CRC32 over the EXPLAIN text of
every plan, in query order.  The checksum says whether a planner change kept
every plan; the timings say whether ``optimizer.plan_s`` moved, in seconds
rather than an end-to-end run's minutes.

Usage::

    python tools/plan_census.py [--scale 0.2] [--repeat 5] [--algorithm USE]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import zlib
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.reopt.registry import ALGORITHM_NAMES, make_algorithm  # noqa: E402
from repro.workloads.imdb import build_imdb_database  # noqa: E402
from repro.workloads.job_queries import job_queries  # noqa: E402


def census(scale: float, repeat: int, algorithm: str = "Default"
           ) -> tuple[dict[int, list[float]], int]:
    """``{relation count: [seconds per plan, ...]}`` and the EXPLAIN CRC32."""
    optimizer = make_algorithm(algorithm,
                               build_imdb_database(scale=scale)).optimizer
    seconds: dict[int, list[float]] = defaultdict(list)
    crc = 0
    for query in job_queries():
        for spj in query.root.spj_leaves():
            for attempt in range(repeat):
                start = time.perf_counter()
                plan = optimizer.plan(spj)
                seconds[len(spj.relations)].append(time.perf_counter() - start)
                if attempt == 0:
                    crc = zlib.crc32(plan.explain().encode(), crc)
    return seconds, crc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=float, default=0.2,
                        help="IMDB scale factor (default 0.2, the e2e ruler's)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="plans per query block (default 5)")
    parser.add_argument("--algorithm", default="Default", choices=ALGORITHM_NAMES,
                        help="the registry row whose optimizer plans "
                             "(default Default)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    seconds, crc = census(args.scale, args.repeat, args.algorithm)
    print(f"{'relations':>9}  {'plans':>5}  {'median_us':>10}")
    for count in sorted(seconds):
        print(f"{count:>9}  {len(seconds[count]) // args.repeat:>5}  "
              f"{statistics.median(seconds[count]) * 1e6:>10.1f}")
    every = [s for times in seconds.values() for s in times]
    print(f"{'all':>9}  {len(every) // args.repeat:>5}  "
          f"{statistics.median(every) * 1e6:>10.1f}")
    print(f"explain_crc32 {crc:08x}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
