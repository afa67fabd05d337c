"""Serving-under-load microbenchmark (beyond the paper).

The paper compares re-optimization policies one query at a time; this
experiment measures the engine as a *served system*: a fixed generated
query stream is offered by a population of simulated users (Poisson
arrival schedules, :mod:`repro.serving.schedule`), admitted through a
bounded queue, and executed by a pool of worker threads sharing one
lock-protected subplan cache (:mod:`repro.serving`).  The sweep covers
the three serving axes

``concurrency (workers) x aggregate arrival rate x admission policy``

and reports, per cell, completed/shed counts, p50/p95/p99
arrival-to-completion latency, mean queue wait, and sustained
throughput.  Every cell replays the *identical* arrival stream and the
identical queries (both pure functions of the seed), so cells differ
only in the serving configuration — the latency curve is attributable to
admission and concurrency, not workload noise.  The server itself refuses
to return a run that lost a request (offered == completed + shed +
errors), and every cell must have zero errors, so a concurrency bug
cannot hide behind a throughput number.
"""

from __future__ import annotations

from repro.bench.artifacts import ExperimentResult
from repro.bench.harness import serve_generated
from repro.bench.reporting import format_table
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

PAPER_ARTIFACT = "Serving-under-load microbenchmark (beyond the paper)"


def _make_generator(database, seed: int) -> RandomQueryGenerator:
    """FK-only join walks: service times stay in the tens-of-milliseconds
    band (no fk-fk cross-edge blowups), so the latency percentiles measure
    queueing and admission behaviour rather than one pathological query."""
    return RandomQueryGenerator(
        database, seed=seed,
        join_config=JoinSamplerConfig(max_joins=3, min_joins=1, fk_only=True),
        predicate_config=PredicateSamplerConfig(max_predicates=3),
        aggregate_config=AggregateSamplerConfig(group_by_probability=0.2),
        name_prefix="serve")


@experiment(artifact=PAPER_ARTIFACT)
def run(scale: float = 0.25,
        queries: int = 48,
        workers_sweep: tuple[int, ...] = (1, 2, 4),
        rates: tuple[float, ...] = (16.0, 64.0),
        policies: tuple[str, ...] = ("shed", "block"),
        algorithm: str = "QuerySplit",
        users: int = 8,
        queue_capacity: int = 8,
        timeout_seconds: float = 10.0,
        use_subplan_cache: bool = True,
        seed: int = 17,
        verbose: bool = True) -> ExperimentResult:
    """Sweep workers x arrival rate x admission policy over one stream.

    ``result.data`` is ``{"cells": cells, "headline": headline}``:
    ``cells`` maps ``(workers, rate, policy)`` to the reporter summary of
    that served run (see :func:`repro.serving.reporter.latency_summary`),
    and ``headline`` holds the two summary numbers —
    ``p95_under_load`` (the saturated highest-rate/shed cell at maximum
    concurrency) and ``peak_throughput_qps`` across all cells.  Every
    cell's per-query reports are flattened into ``workloads`` under
    ``"w{workers}/r{rate}/{policy}"`` keys, so the artifact carries the
    usual per-query records next to the serving aggregates.
    """
    database = dbcache.build("imdb", scale=scale,
                             index_config=IndexConfig.PK_FK)
    generator = _make_generator(database, seed)

    cells: dict[tuple[int, float, str], dict] = {}
    workloads: dict[str, WorkloadResult] = {}
    for workers in workers_sweep:
        for rate in rates:
            for policy in policies:
                cache = SubplanCache() if use_subplan_cache else None
                result = serve_generated(
                    generator, queries, algorithm,
                    workers=workers, users=users, rate=rate,
                    queue_capacity=queue_capacity, admission=policy,
                    timeout_seconds=timeout_seconds,
                    subplan_cache=cache, seed=seed)
                summary = dict(result.summary)
                if summary["errors"]:
                    failed = [o.error for o in result.outcomes if o.error]
                    raise AssertionError(
                        f"serving cell (workers={workers}, rate={rate}, "
                        f"policy={policy}) had worker errors: {failed[:3]}")
                if cache is not None:
                    summary["cache_hit_rate"] = cache.hit_rate
                cells[(workers, rate, policy)] = summary
                workloads[f"w{workers}/r{rate:g}/{policy}"] = \
                    result.workload_result(algorithm)

    max_workers = max(workers_sweep)
    max_rate = max(rates)
    loaded_policy = "shed" if "shed" in policies else policies[0]
    loaded = cells[(max_workers, max_rate, loaded_policy)]
    headline = {
        "p95_under_load": loaded["p95_latency"],
        "p99_under_load": loaded["p99_latency"],
        "throughput_under_load_qps": loaded["throughput_qps"],
        "peak_throughput_qps": max(c["throughput_qps"] for c in cells.values()),
        "loaded_cell": f"w{max_workers}/r{max_rate:g}/{loaded_policy}",
    }

    headers = ["workers", "rate", "policy", "done", "shed", "p50", "p95",
               "p99", "qps"]
    rows = [[w, f"{r:g}", p, cell["completed"], cell["shed"],
             f"{cell['p50_latency'] * 1e3:.1f} ms",
             f"{cell['p95_latency'] * 1e3:.1f} ms",
             f"{cell['p99_latency'] * 1e3:.1f} ms",
             f"{cell['throughput_qps']:.1f}"]
            for (w, r, p), cell in sorted(cells.items())]
    tables = [format_table(headers, rows,
                           title=f"Serving under load ({queries} queries, "
                                 f"{users} users, {algorithm}, "
                                 f"queue={queue_capacity})")]

    summary = {"cells": {f"w{w}/r{r:g}/{p}": cell
                         for (w, r, p), cell in cells.items()},
               **headline}
    return ExperimentResult(
        data={"cells": cells, "headline": headline},
        workloads=workloads,
        summary=summary,
        tables=tables,
    )
