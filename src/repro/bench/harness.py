"""Workload execution harness.

The harness runs a list of queries under a named algorithm and collects the
per-query :class:`~repro.report.ExecutionReport` objects into a
:class:`~repro.report.WorkloadResult`.  Every experiment module builds on it.
The harness only *measures*; formatting lives in
:mod:`repro.bench.reporting` and persistence in :mod:`repro.bench.artifacts`.

Measured time is the executor wall-clock time plus materialization and
statistics-collection time; planner time is excluded for *all* algorithms
because the pure-Python DP planner is slow next to PostgreSQL's C planner:
on the ``job_baselines`` stream of ``benchmarks/e2e`` (Default, Reopt and
Pop over JOB) planning is about a quarter of the wall time (traced
``optimizer.share`` 0.25, down from 0.31 before the DP planner read its
splits from a per-width table; three traced passes each on a 2-vCPU VM),
enough to blur the execution differences the paper compares (see
EXPERIMENTS.md for the full accounting discussion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.qsa import QSAStrategy
from repro.core.ssa import CostFunction
from repro.executor.subplan_cache import SubplanCache
from repro.optimizer.cardinality import CardinalityEstimator
from repro.plan.logical import Query
from repro.report import WorkloadResult
from repro.reopt.registry import make_algorithm
from repro.storage.database import Database


@dataclass
class HarnessConfig:
    """Shared knobs for a harness run."""

    timeout_seconds: float | None = 30.0
    collect_statistics: bool = True
    qsa_strategy: QSAStrategy = QSAStrategy.FK_CENTER
    cost_function: CostFunction = CostFunction.PHI4
    #: Optional factory producing the cardinality estimator driving the
    #: optimizer (used by the CE-noise robustness study).
    estimator_factory: Callable[[Database], CardinalityEstimator] | None = None
    #: Optional engine-level subplan cache shared across every query (and,
    #: when the same instance is passed to several runs, across whole
    #: algorithms/policies).  ``None`` keeps runs fully independent.
    subplan_cache: SubplanCache | None = None


def run_query(database: Database, query: Query, algorithm: str,
              config: HarnessConfig | None = None):
    """Run a single query under ``algorithm`` and return its report."""
    config = config or HarnessConfig()
    estimator = (config.estimator_factory(database)
                 if config.estimator_factory is not None else None)
    runner = make_algorithm(
        algorithm, database,
        collect_statistics=config.collect_statistics,
        timeout_seconds=config.timeout_seconds,
        qsa_strategy=config.qsa_strategy,
        cost_function=config.cost_function,
        estimator=estimator,
        subplan_cache=config.subplan_cache,
    )
    return runner.run(query)


def run_workload(database: Database, queries: Sequence[Query], algorithm: str,
                 config: HarnessConfig | None = None) -> WorkloadResult:
    """Run every query in ``queries`` under ``algorithm``."""
    config = config or HarnessConfig()
    result = WorkloadResult(algorithm=algorithm)
    for query in queries:
        result.reports.append(run_query(database, query, algorithm, config))
    return result


def serve_generated(generator, n: int, algorithm: str, *,
                    workers: int = 4,
                    users: int = 8,
                    rate: float = 16.0,
                    queue_capacity: int = 16,
                    admission: str = "shed",
                    timeout_seconds: float | None = 30.0,
                    subplan_cache: SubplanCache | None = None,
                    seed: int | None = None,
                    time_scale: float = 1.0,
                    keep_results: bool = False):
    """Served mode: drive ``n`` generated queries through the engine server.

    The concurrent counterpart of :func:`run_generated`: the queries at
    stream positions ``0 .. n - 1`` are submitted by ``users`` simulated
    users whose Poisson schedules sum to ``rate`` arrivals per virtual
    second, admitted through a bounded queue (``admission`` is ``"shed"``
    or ``"block"``), and executed by ``workers`` threads — each against
    its own session view of the generator's database, sharing
    ``subplan_cache`` when given.  Returns a
    :class:`~repro.serving.driver.ServingResult` whose ``summary`` holds
    p50/p95/p99 latency and throughput; ``result.workload_result(algorithm)``
    recovers the harness-shaped per-query reports.  See ARCHITECTURE.md
    ("Serving") for the full driver → queue → pool → reporter pipeline.
    """
    from repro.serving.admission import AdmissionPolicy
    from repro.serving.driver import run_served
    from repro.serving.schedule import Repeat, UserSpec, build_arrivals
    from repro.serving.server import ServingConfig

    queries = generator.generate(n)
    per_user = -(-n // max(users, 1))  # ceil: enough events before the cap
    specs = tuple(UserSpec(uid, Repeat(rate=rate / users, count=per_user))
                  for uid in range(users))
    arrivals = build_arrivals(
        specs, seed=generator.seed if seed is None else seed, max_events=n)
    config = ServingConfig(
        algorithm=algorithm, workers=workers, queue_capacity=queue_capacity,
        admission=AdmissionPolicy(admission), timeout_seconds=timeout_seconds,
        subplan_cache=subplan_cache, keep_results=keep_results)
    return run_served(generator.database, queries, arrivals, config,
                      time_scale=time_scale)


def run_generated(generator, n: int, algorithm: str,
                  config: HarnessConfig | None = None,
                  start: int = 0) -> WorkloadResult:
    """Generated-stream mode: run ``n`` queries from a seeded generator.

    ``generator`` is a :class:`~repro.workloads.sqlgen.RandomQueryGenerator`
    (or anything exposing ``database`` and ``generate(n, start)``); the
    queries at stream positions ``start .. start + n - 1`` are materialized
    and run under ``algorithm`` against the generator's own database.
    Because the stream is a pure function of the seed, calling this for
    several algorithms (or across processes) compares them on the *identical*
    workload without shipping query lists around.
    """
    queries = generator.generate(n, start=start)
    return run_workload(generator.database, queries, algorithm, config)
