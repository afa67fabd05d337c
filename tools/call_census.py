#!/usr/bin/env python3
"""Call census: Python function calls per query, by ``src/repro`` layer.

Runs one query stream under QuerySplit over the synthetic IMDB database
at scale 0.05 and counts every Python function call
(a ``sys.setprofile`` "call" event) made while a query runs.  A call into
``src/repro`` is charged to the function called; a call outside it (the
standard library, numpy's Python code, a dataclass's generated
``__init__``) to the innermost ``src/repro`` function on the stack.  Calls
are totalled by layer -- the package directory below ``repro`` (``core``,
``optimizer``, ``plan``, ...) or the module name of a top-level module --
and, with ``--top N``, listed for the N functions charged most.  Building
the database and generating the queries are not counted; each query's run
through the harness (``run_query``: the algorithm's construction,
planning, execution and finalization) is.

Streams:

* ``job`` -- the 91 JOB queries over the synthetic IMDB database;
* ``gen`` -- the first 100 queries of the generated stream of the
  ``gen_served`` workload (sqlgen seed 0, 1-3 joins) over the same
  database.

The counts are exact, but a walk over a set of strings can take another
number of steps under another string hash seed (an ``all(...)`` over a
predicate's alias set stops at the first alias that fails, and which
alias comes first depends on the seed: JOB once read 2,477 and 2,481 calls
per query under two seeds).  So the census always runs in a child
process with ``PYTHONHASHSEED=0``, whatever the caller's environment, and
two runs print the same counts.  A change that
derives a fact once instead of once per call shows as fewer calls in the
layer that used to re-derive it, independent of the machine's speed.

Usage::

    python tools/call_census.py [--stream job|gen] [--top N]
"""

from __future__ import annotations

import argparse
import functools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
sys.path.insert(0, str(ROOT / "src"))

ALGORITHM = "QuerySplit"
SCALE = 0.05  # IMDB scale factor
GEN_QUERIES = 100  # length of the generated stream


@functools.lru_cache(maxsize=None)
def _layer(filename: str) -> str | None:
    """The ``src/repro`` layer a code object's file belongs to, or ``None``."""
    try:
        parts = Path(filename).resolve().relative_to(PACKAGE).parts
    except ValueError:
        return None
    return parts[0] if len(parts) > 1 else Path(parts[0]).stem


def census(stream: str) -> tuple[int, Counter]:
    """``(queries run, {code object: calls charged to it})`` of one stream;
    every code object is under ``src/repro``."""
    from repro.bench.harness import HarnessConfig, run_query
    from repro.workloads.imdb import build_imdb_database

    database = build_imdb_database(scale=SCALE)
    if stream == "job":
        from repro.workloads.job_queries import job_queries
        stream_queries = job_queries()
    else:
        from repro.workloads.sqlgen import JoinSamplerConfig, RandomQueryGenerator
        stream_queries = RandomQueryGenerator(
            database, seed=0, join_config=JoinSamplerConfig(min_joins=1, max_joins=3)
        ).generate(GEN_QUERIES)

    config = HarnessConfig()
    by_code: Counter = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            # A call outside the package counts against the innermost
            # package frame that led to it.
            while _layer(frame.f_code.co_filename) is None:
                frame = frame.f_back
                if frame is None:
                    return
            by_code[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        for query in stream_queries:
            run_query(database, query, ALGORITHM, config)
    finally:
        sys.setprofile(None)
    return len(stream_queries), by_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--stream", choices=("job", "gen"), default="job",
                        help="query stream (default job)")
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="also list the N functions called most often")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.child:
        argv = sys.argv[1:] if argv is None else list(argv)
        done = subprocess.run(
            [sys.executable, __file__, *argv, "--child"],
            env={**os.environ, "PYTHONHASHSEED": "0"},
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        return done.returncode

    count, by_code = census(args.stream)
    by_layer: Counter = Counter()
    for code, calls in by_code.items():
        by_layer[_layer(code.co_filename)] += calls
    print(f"stream {args.stream}  algorithm {ALGORITHM}  scale {SCALE}  "
          f"queries {count}  PYTHONHASHSEED {os.environ.get('PYTHONHASHSEED')}")
    print(f"{'layer':<12}  {'calls/query':>11}")
    for layer, calls in sorted(by_layer.items(), key=lambda item: (-item[1], item[0])):
        print(f"{layer:<12}  {calls / count:>11.1f}")
    print(f"{'all':<12}  {sum(by_layer.values()) / count:>11.1f}")
    functions = sorted(
        ((calls, f"{Path(code.co_filename).resolve().relative_to(PACKAGE)}:"
                 f"{code.co_firstlineno} {getattr(code, 'co_qualname', code.co_name)}")
         for code, calls in by_code.items()),
        key=lambda item: (-item[0], item[1]))
    for calls, where in functions[:args.top]:
        print(f"{calls / count:>11.1f}  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
