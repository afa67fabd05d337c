"""Re-optimization under statistics drift (beyond the paper).

Every other experiment plans against statistics collected on the exact
data being queried; estimation error is *noise* (figure10 perturbs it
synthetically).  This experiment makes the error *systematic*: a private
star-schema database whose fact table drifts -- appended rows come from
shifting value windows, a rotating foreign-key hot spot, and a growing
string dictionary (:mod:`repro.dynamic.drift`) -- while the optimizer's
statistics age according to a re-ANALYZE policy
(:mod:`repro.dynamic.staleness`).

The sweep covers ``drift rate x re-ANALYZE policy x algorithm``.  Every
cell builds its **own** database from the same seed (the shared
``dbcache`` is deliberately bypassed: mutations must not leak between
cells) and replays the *identical* drift batches and the *identical*
query stream, so cells differ only in when statistics are refreshed and
which planner consumes them.  Queries are pre-generated once per drift
rate from a reference database that is drifted in lockstep and
re-ANALYZEd after every step -- the generator samples filter literals
from statistics, so generating against always-fresh statistics keeps the
workload chasing the live data (queries over the drifted value windows
and the current hot keys) without the policy under test influencing
which queries it gets asked.

Staleness accounting rules (also in EXPERIMENTS.md): the per-query
estimate is what the **current** (possibly stale) statistics imply for
the query's full join at plan time; the actual is the executed full-join
cardinality (the last iteration's ``result_rows``); q-error clamps both
to >= 1 row.  ANALYZE cost is *not* folded into query seconds -- it is
reported separately as ``reanalyzes`` so the policy's price stays
visible next to its benefit.

Headline:

* ``triggered_qerror_improvement`` -- mean q-error of the static
  optimizer under ``never`` divided by under ``triggered`` at the
  highest drift rate (> 1 means feedback-triggered re-ANALYZE recovered
  estimation quality);
* ``reopt_advantage_under_drift`` -- static-optimizer seconds divided by
  the best re-optimizer's seconds, both planning on never-refreshed
  statistics at the highest drift rate (> 1 means run-time
  re-optimization rescued what stale statistics broke -- the paper's
  thesis transplanted to the dynamic-data setting).
"""

from __future__ import annotations

import numpy as np

from repro.bench.artifacts import ExperimentResult, base_summary
from repro.bench.harness import HarnessConfig, run_query
from repro.bench.reporting import format_seconds, format_table
from repro.catalog.schema import Column, ForeignKey, Schema, TableSchema
from repro.catalog.types import DataType
from repro.dynamic import DriftConfig, DriftStream, StalenessController
from repro.experiments.registry import experiment
from repro.report import WorkloadResult
from repro.storage.database import Database, IndexConfig
from repro.storage.table import DataTable
from repro.workloads.datagen import (
    categorical,
    sequential_ids,
    skewed_fanout_choice,
    string_pool,
)
from repro.workloads.sqlgen import (
    AggregateSamplerConfig,
    JoinSamplerConfig,
    PredicateSamplerConfig,
    RandomQueryGenerator,
)

PAPER_ARTIFACT = "Stale-statistics microbenchmark (beyond the paper)"

#: The drifting fact table every stream targets.
FACT_TABLE = "events"

#: Base table sizes at scale 1.0.
_BASE_SIZES = {"dim": 500, "users": 800, "events": 12_000, "actions": 6_000}

_SCHEMA = Schema([
    TableSchema("dim",
                [Column("id", DataType.INT),
                 Column("category", DataType.STRING),
                 Column("rank", DataType.INT)],
                primary_key="id"),
    TableSchema("users",
                [Column("id", DataType.INT),
                 Column("region", DataType.STRING),
                 Column("signup", DataType.INT)],
                primary_key="id"),
    # Two fact tables sharing both dimensions: with fk_only=False the
    # generator also samples the expanding fk-fk joins (events.dim_id =
    # actions.dim_id) whose misestimation under drift the re-optimizers
    # are supposed to catch mid-query.
    TableSchema("events",
                [Column("id", DataType.INT),
                 Column("dim_id", DataType.INT),
                 Column("user_id", DataType.INT),
                 Column("value", DataType.INT),
                 Column("tag", DataType.STRING)],
                primary_key="id",
                foreign_keys=[ForeignKey("dim_id", "dim", "id"),
                              ForeignKey("user_id", "users", "id")]),
    TableSchema("actions",
                [Column("id", DataType.INT),
                 Column("dim_id", DataType.INT),
                 Column("user_id", DataType.INT),
                 Column("amount", DataType.INT)],
                primary_key="id",
                foreign_keys=[ForeignKey("dim_id", "dim", "id"),
                              ForeignKey("user_id", "users", "id")]),
])


def build_drift_database(scale: float = 1.0, seed: int = 7,
                         block_size: int | None = None) -> Database:
    """A **private** star-schema database for drift experiments.

    Never cached: callers mutate it, so each cell must own its instance
    (``dbcache`` would hand the same object to every caller).
    """
    rng = np.random.default_rng(seed)
    sizes = {name: max(int(round(count * scale)), 8)
             for name, count in _BASE_SIZES.items()}
    kwargs = {} if block_size is None else {"block_size": block_size}
    db = Database(_SCHEMA, index_config=IndexConfig.PK_FK, **kwargs)

    n_dim = sizes["dim"]
    db.load_table(DataTable("dim", {
        "id": sequential_ids(n_dim),
        "category": categorical(
            rng, ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"],
            [0.3, 0.25, 0.18, 0.12, 0.09, 0.06], n_dim),
        "rank": rng.permutation(n_dim).astype(np.int64),
    }))

    n_users = sizes["users"]
    db.load_table(DataTable("users", {
        "id": sequential_ids(n_users),
        "region": categorical(
            rng, ["na", "eu", "apac", "latam", "mea"],
            [0.35, 0.28, 0.2, 0.1, 0.07], n_users),
        "signup": rng.integers(2000, 2021, n_users),
    }))

    n_events = sizes["events"]
    db.load_table(DataTable("events", {
        "id": sequential_ids(n_events),
        "dim_id": (1 + skewed_fanout_choice(rng, n_dim, n_events,
                                            sigma=1.5)).astype(np.int64),
        "user_id": (1 + skewed_fanout_choice(rng, n_users, n_events,
                                             sigma=1.2)).astype(np.int64),
        "value": rng.integers(0, 1000, n_events),
        "tag": string_pool("tag", 200)[rng.integers(0, 200, n_events)],
    }))

    n_actions = sizes["actions"]
    db.load_table(DataTable("actions", {
        "id": sequential_ids(n_actions),
        "dim_id": (1 + skewed_fanout_choice(rng, n_dim, n_actions,
                                            sigma=1.5)).astype(np.int64),
        "user_id": (1 + skewed_fanout_choice(rng, n_users, n_actions,
                                             sigma=1.2)).astype(np.int64),
        "amount": rng.integers(0, 500, n_actions),
    }))
    return db


def _drift_config(drift_rate: float, initial_rows: int) -> DriftConfig:
    """Append ``drift_rate`` of the initial fact size per step."""
    return DriftConfig(fact_table=FACT_TABLE,
                       append_rows=max(1, int(round(drift_rate * initial_rows))),
                       delete_fraction=0.02,
                       value_drift=0.3,
                       new_string_rate=0.3)


def _make_generator(database: Database, seed: int) -> RandomQueryGenerator:
    """Query sampler used by every cell (via the reference database).

    ``fk_only=False`` admits the expanding fk-fk joins; the point-drop
    knob discards most near-single-row equality lookups so queries touch
    enough rows for estimation error to change join orders.
    """
    return RandomQueryGenerator(
        database, seed=seed,
        join_config=JoinSamplerConfig(max_joins=3, min_joins=1, fk_only=False),
        predicate_config=PredicateSamplerConfig(
            max_predicates=2, point_drop_rate=0.75),
        aggregate_config=AggregateSamplerConfig(max_aggregates=1),
        name_prefix="drift")


def _pregenerate_queries(scale: float, drift_rate: float, steps: int,
                         queries_per_step: int, seed: int) -> list[list]:
    """The frozen per-step query lists every cell of ``drift_rate`` replays.

    A reference database is drifted in lockstep with the cells and
    re-ANALYZEd after every step, so the sampled filter literals chase
    the live data; the resulting :class:`~repro.plan.logical.Query`
    objects embed their literals and are independent of any database.
    """
    reference = build_drift_database(scale=scale, seed=seed)
    stream = DriftStream(
        reference,
        _drift_config(drift_rate, reference.table(FACT_TABLE).num_rows),
        seed=seed + 1)
    generator = _make_generator(reference, seed=seed + 2)
    per_step: list[list] = []
    for step in range(steps):
        stream.apply(step)
        reference.analyze(FACT_TABLE)
        per_step.append(generator.generate(
            queries_per_step, start=step * queries_per_step))
    return per_step


@experiment(artifact=PAPER_ARTIFACT,
            defaults={"scale": 0.25, "steps": 3, "queries_per_step": 4})
def run(scale: float = 1.0,
        drift_rates: tuple[float, ...] = (0.1, 0.5),
        policies: tuple[str, ...] = ("never", "periodic", "triggered"),
        algorithms: tuple[str, ...] = ("Default", "QuerySplit", "Reopt"),
        steps: int = 4,
        queries_per_step: int = 6,
        period: int = 2,
        q_error_threshold: float = 4.0,
        timeout_seconds: float = 20.0,
        seed: int = 7,
        verbose: bool = True) -> ExperimentResult:
    """Sweep drift rate x re-ANALYZE policy x algorithm over one stream.

    ``result.data`` is ``{"cells": cells, "headline": headline}``:
    ``cells`` maps ``(drift_rate, policy, algorithm)`` to the cell's
    metrics (``seconds``, ``mean_q_error``, ``p95_q_error``,
    ``reanalyzes``, ``timeouts``, ``final_epoch``); ``headline`` holds
    ``triggered_qerror_improvement`` and ``reopt_advantage_under_drift``
    (see the module docstring).  Per-cell workloads are flattened under
    ``"d{rate}/{policy}/{algorithm}"`` keys.
    """
    cells: dict[tuple[float, str, str], dict] = {}
    workloads: dict[str, WorkloadResult] = {}
    config = HarnessConfig(timeout_seconds=timeout_seconds)
    # Per (drift_rate, policy): {query_name: final_rows} of the first
    # algorithm, cross-checked against the others (same drift + same
    # queries must yield identical results whatever the planner does).
    for drift_rate in drift_rates:
        step_queries = _pregenerate_queries(scale, drift_rate, steps,
                                            queries_per_step, seed)
        for policy in policies:
            expected_rows: dict[str, int] = {}
            for algorithm in algorithms:
                database = build_drift_database(scale=scale, seed=seed)
                stream = DriftStream(
                    database,
                    _drift_config(drift_rate,
                                  database.table(FACT_TABLE).num_rows),
                    seed=seed + 1)
                controller = StalenessController(
                    database, policy=policy, period=period,
                    q_error_threshold=q_error_threshold)
                result = WorkloadResult(algorithm=algorithm)
                for step in range(steps):
                    stream.apply(step)
                    for query in step_queries[step]:
                        report = run_query(database, query, algorithm, config)
                        result.reports.append(report)
                        actual = (report.iterations[-1].result_rows
                                  if report.iterations else report.final_rows)
                        controller.observe(query, actual)
                        if not report.timed_out:
                            previous = expected_rows.setdefault(
                                query.name, report.final_rows)
                            if previous != report.final_rows:
                                raise AssertionError(
                                    f"cell (drift={drift_rate}, {policy}, "
                                    f"{algorithm}): query {query.name} "
                                    f"returned {report.final_rows} rows, "
                                    f"another algorithm got {previous}")
                controller.close()
                cells[(drift_rate, policy, algorithm)] = {
                    "seconds": result.total_time,
                    "mean_q_error": controller.mean_q_error,
                    "p95_q_error": controller.p95_q_error,
                    "reanalyzes": controller.reanalyze_count,
                    "timeouts": result.timeouts,
                    "final_epoch": database.table_epoch(FACT_TABLE),
                }
                workloads[f"d{drift_rate:g}/{policy}/{algorithm}"] = result

    # ------------------------------------------------------------------
    # Headline: does re-ANALYZE fix estimates, does re-opt fix plans?
    # ------------------------------------------------------------------
    top = max(drift_rates)
    static = algorithms[0]
    reopt_names = [a for a in algorithms if a != static]
    never_q = cells[(top, "never", static)]["mean_q_error"]
    stale_cells = {a: cells[(top, "never", a)] for a in algorithms}
    best_reopt = min(reopt_names,
                     key=lambda a: stale_cells[a]["seconds"])
    headline = {
        "drift_rate": top,
        "never_mean_q_error": never_q,
        "static_seconds_stale": stale_cells[static]["seconds"],
        "best_reopt": best_reopt,
        "best_reopt_seconds_stale": stale_cells[best_reopt]["seconds"],
        "reopt_advantage_under_drift":
            stale_cells[static]["seconds"]
            / max(stale_cells[best_reopt]["seconds"], 1e-9),
    }
    if "triggered" in policies:
        triggered_q = cells[(top, "triggered", static)]["mean_q_error"]
        headline["triggered_mean_q_error"] = triggered_q
        headline["triggered_qerror_improvement"] = (
            never_q / max(triggered_q, 1.0))

    headers = ["drift", "policy", "algorithm", "seconds", "mean q-err",
               "p95 q-err", "analyzes", "timeouts"]
    rows = [[f"{d:g}", policy, algorithm,
             format_seconds(cell["seconds"]),
             f"{cell['mean_q_error']:.2f}",
             f"{cell['p95_q_error']:.2f}",
             cell["reanalyzes"], cell["timeouts"] or ""]
            for (d, policy, algorithm), cell in sorted(cells.items())]
    tables = [format_table(
        headers, rows,
        title=f"Stale statistics under drift ({steps} steps x "
              f"{queries_per_step} queries, period={period}, "
              f"threshold={q_error_threshold:g})")]

    summary = dict(base_summary(workloads))
    summary["cells"] = {f"d{d:g}/{policy}/{algorithm}": cell
                        for (d, policy, algorithm), cell in cells.items()}
    summary.update(headline)
    outcome = ExperimentResult(
        name="bench_stale_stats",
        artifact=PAPER_ARTIFACT,
        params={"scale": scale, "drift_rates": drift_rates,
                "policies": policies, "algorithms": algorithms,
                "steps": steps, "queries_per_step": queries_per_step,
                "period": period, "q_error_threshold": q_error_threshold,
                "timeout_seconds": timeout_seconds, "seed": seed},
        data={"cells": cells, "headline": headline},
        workloads=workloads,
        summary=summary,
        tables=tables,
    )
    if verbose:
        print(outcome.render())
    return outcome
