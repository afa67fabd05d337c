"""Experiment runner CLI: ``python -m repro.cli {list,run,report}``.

The runner is the orchestration layer on top of the experiment registry
(:mod:`repro.experiments.registry`) and the artifact store
(:mod:`repro.bench.artifacts`):

* ``list``   — enumerate registered experiments and their paper artifacts;
* ``run``    — execute experiments, fanning independent work across a
  ``multiprocessing`` process pool: whole experiments run concurrently,
  and experiments that declare a shard parameter (``families``) are
  additionally split into per-family shards whose per-query records are
  merged back into a single artifact.  Each worker process keeps a cache
  of constructed databases (:mod:`repro.workloads.dbcache`), so shards of
  the same (workload, scale) pay the build cost once per worker.  Every
  completed experiment is persisted as a schema-versioned JSON artifact
  under ``--results-dir`` and **skipped on re-run** (unless ``--force`` or
  the run's effective params changed), which makes large sweeps resumable;
* ``report`` — merge the persisted artifacts into ``BENCH_summary.json``,
  replacing only the experiments that have an artifact;
* ``serve``  — one served run through the concurrent engine server
  (:mod:`repro.serving`): simulated users on seeded arrival schedules,
  bounded-queue admission control, a worker-thread pool, and a printed
  p50/p95/p99 latency + throughput report.  The registered
  ``bench_serving`` experiment sweeps the same axes and persists
  artifacts like every other experiment.

See EXPERIMENTS.md for per-experiment invocations and the artifact schema.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from inspect import signature
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.bench import artifacts
from repro.bench.reporting import format_seconds, format_table
from repro.experiments import registry
from repro.workloads import dbcache

#: Default directory for persisted per-experiment artifacts.
DEFAULT_RESULTS_DIR = "results"

#: Default path of the merged summary (the bench trajectory file).
DEFAULT_SUMMARY = "BENCH_summary.json"


@dataclass(frozen=True)
class Task:
    """One unit of pool work: an experiment run, possibly a single shard."""

    experiment: str
    kwargs: dict[str, Any]
    shard_index: int = 0


@dataclass
class RunStatus:
    """Outcome of one experiment within a ``run`` invocation."""

    name: str
    status: str  # "written" | "skipped" | "failed"
    path: Path | None = None
    message: str = ""
    elapsed: float = 0.0
    queries: int = 0
    shards: int = 0
    errors: list[str] = field(default_factory=list)


def _worker_init() -> None:
    dbcache.enable()


def _run_task(task: Task) -> dict[str, Any]:
    """Execute one task and return the picklable per-shard payload."""
    spec = registry.get(task.experiment)
    start = time.perf_counter()
    result = spec.runner(verbose=False, **task.kwargs)
    return artifacts.partial_artifact(result, time.perf_counter() - start)


def _accepted_kwargs(spec: registry.ExperimentSpec,
                     requested: Mapping[str, Any]) -> dict[str, Any]:
    """Filter ``requested`` down to parameters the experiment's run() takes.

    Shared flags (``--scale``, ``--families``, ``--timeout``, ``--seed``) and
    ``--set`` knobs degrade gracefully: an experiment that lacks the
    parameter simply does not receive it, so one invocation can span
    experiments with different signatures.
    """
    params = signature(spec.runner).parameters
    return {key: value for key, value in requested.items() if key in params}


def plan_tasks(spec: registry.ExperimentSpec, kwargs: Mapping[str, Any],
               jobs: int) -> list[Task]:
    """Split one experiment into pool tasks (per-family shards when possible)."""
    if jobs > 1 and spec.shard_param is not None:
        values = spec.shard_values(kwargs.get(spec.shard_param))
        if len(values) > 1:
            return [Task(spec.name, {**kwargs, spec.shard_param: [value]}, index)
                    for index, value in enumerate(values)]
    return [Task(spec.name, dict(kwargs))]


def run_experiments(names: Sequence[str], *,
                    jobs: int = 1,
                    results_dir: str | Path = DEFAULT_RESULTS_DIR,
                    summary_path: str | Path | None = DEFAULT_SUMMARY,
                    force: bool = False,
                    overrides: Mapping[str, Any] | None = None,
                    verbose: bool = False) -> list[RunStatus]:
    """Run ``names`` and persist one JSON artifact per experiment.

    ``overrides`` maps knob names (``scale``, ``families``,
    ``timeout_seconds``, ...) to values; each experiment receives only the
    knobs its ``run()`` accepts, and ``run()``'s own defaults fill in the
    rest.  A completed artifact whose ``params`` equal the params this call
    binds to is skipped unless ``force``.
    """
    registry.load_all()
    results_dir = Path(results_dir)
    overrides = dict(overrides or {})
    rev = artifacts.git_rev()

    statuses: dict[str, RunStatus] = {}
    pending: list[tuple[registry.ExperimentSpec, dict[str, Any], list[Task]]] = []
    for name in names:
        spec = registry.get(name)
        requested = _accepted_kwargs(spec, overrides)
        path = results_dir / f"{name}.json"
        params = spec.params(spec.bind(**requested))
        if not force and _completed(path, name, params):
            statuses[name] = RunStatus(name=name, status="skipped", path=path,
                                       message="artifact up to date")
            continue
        pending.append((spec, requested, plan_tasks(spec, requested, jobs)))

    _execute(pending, statuses, jobs=jobs, results_dir=results_dir, rev=rev,
             verbose=verbose)
    for spec, _, tasks in pending:
        if spec.name not in statuses:
            statuses[spec.name] = RunStatus(
                name=spec.name, status="failed", shards=len(tasks),
                message="run aborted before all shards completed")

    if summary_path is not None:
        write_summary(results_dir, summary_path, rev=rev)
    return [statuses[name] for name in names if name in statuses]


def _completed(path: Path, name: str, params: Mapping[str, Any]) -> bool:
    """True when a valid artifact of ``name`` run with ``params`` exists."""
    artifact = _load_valid(path)
    return (artifact is not None and artifact["experiment"] == name
            and artifact["params"] == params)


def _load_valid(path: Path) -> dict[str, Any] | None:
    """The artifact at ``path``, or ``None`` when it is missing or invalid."""
    try:
        artifact = artifacts.load_artifact(path)
    except (OSError, json.JSONDecodeError):
        return None
    return None if artifacts.validate_artifact(artifact) else artifact


def _execute(pending, statuses: dict[str, RunStatus], *, jobs: int,
             results_dir: Path, rev: str, verbose: bool) -> None:
    """Run the planned tasks (pool when jobs > 1) and write merged artifacts.

    Each experiment's artifact is persisted as soon as its last shard
    finishes — never at the end of the whole invocation — so interrupting
    a sweep only loses the experiments still in flight.  An experiment's
    ``started_at`` and wall clock start when its first task starts, so
    time spent waiting for earlier experiments is not counted.  The pool
    is handed a task only when a worker is free, so that is when it starts.
    """
    if not pending:
        return
    started: dict[str, str] = {}
    clocks: dict[str, float] = {}
    partials: dict[str, list[dict[str, Any] | None]] = {
        spec.name: [None] * len(tasks) for spec, _, tasks in pending}
    errors: dict[str, list[str]] = {spec.name: [] for spec, _, _ in pending}
    outstanding = {spec.name: len(tasks) for spec, _, tasks in pending}
    specs = {spec.name: spec for spec, _, _ in pending}

    def finalize(name: str) -> None:
        spec = specs[name]
        elapsed = time.perf_counter() - clocks[name]
        shard_payloads = [p for p in partials[name] if p is not None]
        total = len(partials[name])
        if errors[name] or len(shard_payloads) != total:
            statuses[name] = RunStatus(
                name=name, status="failed", elapsed=elapsed, shards=total,
                errors=errors[name],
                message="; ".join(errors[name]) or "missing shard results")
            return
        try:
            merged = artifacts.merge_partials(
                shard_payloads, shard_param=spec.shard_param,
                started_at=started[name], finished_at=artifacts.utc_now(),
                wall_clock_seconds=elapsed, rev=rev)
            path = results_dir / f"{name}.json"
            artifacts.write_artifact(path, merged)
        except Exception as exc:  # noqa: BLE001 — persisting failed, not the run
            statuses[name] = RunStatus(
                name=name, status="failed", elapsed=elapsed, shards=total,
                errors=[str(exc)], message=f"could not persist artifact: {exc}")
            return
        if verbose:
            print("\n\n".join(merged["tables"]))
        statuses[name] = RunStatus(
            name=name, status="written", path=path, elapsed=elapsed,
            queries=len(merged["queries"]), shards=total)

    def begin(task: Task) -> None:
        if task.experiment not in clocks:
            started[task.experiment] = artifacts.utc_now()
            clocks[task.experiment] = time.perf_counter()

    def record(task: Task, payload: dict[str, Any] | None, error: str | None) -> None:
        if error is not None:
            errors[task.experiment].append(f"shard {task.shard_index}: {error}")
        else:
            partials[task.experiment][task.shard_index] = payload
        outstanding[task.experiment] -= 1
        if outstanding[task.experiment] == 0:
            finalize(task.experiment)

    if jobs <= 1:
        dbcache.enable()
        try:
            for spec, _, tasks in pending:
                for task in tasks:
                    begin(task)
                    try:
                        payload, error = _run_task(task), None
                    except Exception as exc:  # noqa: BLE001 — fail per experiment
                        payload, error = None, str(exc)
                    record(task, payload, error)
        finally:
            dbcache.disable()
    else:
        queued = (task for _, _, tasks in pending for task in tasks)
        with ProcessPoolExecutor(max_workers=jobs,
                                 initializer=_worker_init) as pool:
            running: dict[Future, Task] = {}

            def submit_next() -> None:
                task = next(queued, None)
                if task is not None:
                    begin(task)
                    running[pool.submit(_run_task, task)] = task

            for _ in range(jobs):
                submit_next()
            while running:
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    task = running.pop(future)
                    try:
                        payload, error = future.result(), None
                    except Exception as exc:  # noqa: BLE001
                        payload, error = None, str(exc)
                    record(task, payload, error)
                    submit_next()


def write_summary(results_dir: str | Path,
                  summary_path: str | Path = DEFAULT_SUMMARY,
                  rev: str | None = None) -> dict[str, Any]:
    """Merge every valid artifact under ``results_dir`` into the summary file.

    Entries of the existing summary are kept; only experiments with a valid
    artifact under ``results_dir`` are replaced.
    """
    summary_path = Path(summary_path)
    collected: dict[str, dict[str, Any]] = {}
    # A summary file in the directory fails validation and is passed over.
    for path in sorted(Path(results_dir).glob("*.json")):
        artifact = _load_valid(path)
        if artifact is not None:
            collected[artifact["experiment"]] = artifact
    summary = artifacts.build_bench_summary(collected, rev=rev)
    try:
        previous = artifacts.load_artifact(summary_path)
    except (OSError, json.JSONDecodeError):
        previous = None
    if isinstance(previous, dict) and \
            previous.get("schema_version") == artifacts.SCHEMA_VERSION:
        experiments = {**previous.get("experiments", {}), **summary["experiments"]}
        summary["experiments"] = dict(sorted(experiments.items()))
    artifacts.write_artifact(summary_path, summary)
    return summary


# ----------------------------------------------------------------------
# Argument parsing and subcommands
# ----------------------------------------------------------------------

def _parse_families(text: str) -> list[int]:
    try:
        return [int(part) for part in text.replace(" ", "").split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"--families expects comma-separated integers, got {text!r}") from exc


def _parse_set(pairs: Sequence[str]) -> dict[str, Any]:
    """Parse repeated ``--set key=value`` overrides (values are JSON when valid)."""
    overrides: dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise argparse.ArgumentTypeError(
                f"--set expects key=value, got {pair!r}")
        try:
            overrides[key] = json.loads(value)
        except json.JSONDecodeError:
            overrides[key] = value
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Registry-driven experiment runner with persisted JSON "
                    "artifacts (see EXPERIMENTS.md).")
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="enumerate registered experiments")
    list_cmd.add_argument("--json", action="store_true",
                          help="emit the registry as JSON")

    run_cmd = sub.add_parser(
        "run", help="run experiments and persist one JSON artifact each")
    run_cmd.add_argument("names", nargs="*",
                         help="experiment names (see 'list')")
    run_cmd.add_argument("--all", action="store_true",
                         help="run every registered experiment")
    run_cmd.add_argument("--scale", type=float, default=None,
                         help="data scale factor (experiment default: 1.0)")
    run_cmd.add_argument("--families", type=_parse_families, default=None,
                         metavar="N,N,...",
                         help="restrict to these query families / numbers")
    run_cmd.add_argument("--timeout", type=float, default=None,
                         help="per-query timeout in seconds")
    run_cmd.add_argument("--seed", type=int, default=None,
                         help="seed for experiments that take one")
    run_cmd.add_argument("--jobs", type=int, default=1,
                         help="worker processes; >1 also shards experiments "
                              "by query family where possible")
    run_cmd.add_argument("--results-dir", default=DEFAULT_RESULTS_DIR,
                         help=f"artifact directory (default: {DEFAULT_RESULTS_DIR}/)")
    run_cmd.add_argument("--summary", default=DEFAULT_SUMMARY,
                         help=f"merged summary path (default: {DEFAULT_SUMMARY})")
    run_cmd.add_argument("--force", action="store_true",
                         help="re-run even when a completed artifact matches")
    run_cmd.add_argument("--set", dest="overrides", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="extra run() knob (JSON value), e.g. "
                              "--set 'algorithms=[\"QuerySplit\",\"Default\"]'")
    run_cmd.add_argument("--verbose", action="store_true",
                         help="print each experiment's reproduced tables")

    report_cmd = sub.add_parser(
        "report", help="merge persisted artifacts into the summary file")
    report_cmd.add_argument("--results-dir", default=DEFAULT_RESULTS_DIR)
    report_cmd.add_argument("--summary", default=DEFAULT_SUMMARY)

    serve_cmd = sub.add_parser(
        "serve",
        help="served mode: drive a generated stream through the concurrent "
             "engine server and print the latency/throughput report")
    serve_cmd.add_argument("--workload", default="imdb",
                           choices=["imdb", "tpch", "dsb"],
                           help="benchmark database to serve (default: imdb)")
    serve_cmd.add_argument("--scale", type=float, default=0.25,
                           help="data scale factor (default: 0.25)")
    serve_cmd.add_argument("--algorithm", default="QuerySplit",
                           help="policy executing every query "
                                "(default: QuerySplit)")
    serve_cmd.add_argument("--queries", type=int, default=100,
                           help="generated-stream length (default: 100)")
    serve_cmd.add_argument("--workers", type=int, default=4,
                           help="engine worker threads (default: 4)")
    serve_cmd.add_argument("--users", type=int, default=8,
                           help="simulated users submitting the stream "
                                "(default: 8)")
    serve_cmd.add_argument("--rate", type=float, default=16.0,
                           help="aggregate arrival rate, queries/second "
                                "(default: 16)")
    serve_cmd.add_argument("--admission", default="shed",
                           choices=["shed", "block"],
                           help="full-queue policy (default: shed)")
    serve_cmd.add_argument("--queue-capacity", type=int, default=8,
                           help="admission queue depth (default: 8)")
    serve_cmd.add_argument("--timeout", type=float, default=10.0,
                           help="per-query execution budget in seconds "
                                "(default: 10)")
    serve_cmd.add_argument("--seed", type=int, default=17,
                           help="stream + schedule seed (default: 17)")
    serve_cmd.add_argument("--time-scale", type=float, default=1.0,
                           help="wall seconds per schedule second (<1 "
                                "compresses the schedule; default: 1.0)")
    serve_cmd.add_argument("--no-cache", action="store_true",
                           help="disable the shared cross-query subplan cache")
    return parser


def cmd_list(args: argparse.Namespace) -> int:
    specs = registry.load_all()
    if args.json:
        payload = {name: {"artifact": spec.artifact, "module": spec.module,
                          "shard_param": spec.shard_param,
                          "params": spec.params(spec.bind())}
                   for name, spec in sorted(specs.items())}
        print(json.dumps(payload, indent=2))
        return 0
    rows = [[name, spec.artifact,
             spec.shard_param or "-"]
            for name, spec in sorted(specs.items())]
    print(format_table(["Experiment", "Paper artifact", "Shards by"], rows,
                       title=f"{len(rows)} registered experiments"))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    specs = registry.load_all()
    if args.all:
        names = sorted(specs)
    elif args.names:
        names = list(args.names)
    else:
        print("error: name at least one experiment or pass --all",
              file=sys.stderr)
        return 2
    try:
        overrides = _parse_set(args.overrides)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for flag, knob in (("scale", "scale"), ("families", "families"),
                       ("timeout", "timeout_seconds"), ("seed", "seed")):
        value = getattr(args, flag)
        if value is not None:
            overrides.setdefault(knob, value)

    statuses = run_experiments(
        names, jobs=max(1, args.jobs), results_dir=args.results_dir,
        summary_path=args.summary, force=args.force, overrides=overrides,
        verbose=args.verbose)

    rows = [[s.name, s.status, s.queries or "", s.shards or "",
             format_seconds(s.elapsed) if s.elapsed else "",
             s.message or (str(s.path) if s.path else "")]
            for s in statuses]
    print(format_table(
        ["Experiment", "Status", "Queries", "Shards", "Wall clock", "Detail"],
        rows, title=f"run complete — summary: {args.summary}"))
    return 1 if any(s.status == "failed" for s in statuses) else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """One served run (driver → admission queue → worker pool → report)."""
    from repro.bench.harness import serve_generated
    from repro.executor.subplan_cache import SubplanCache
    from repro.storage.database import IndexConfig
    from repro.workloads.sqlgen import RandomQueryGenerator

    database = dbcache.build(args.workload, scale=args.scale,
                             index_config=IndexConfig.PK_FK)
    generator = RandomQueryGenerator(database, seed=args.seed,
                                     name_prefix="serve")
    cache = None if args.no_cache else SubplanCache()
    result = serve_generated(
        generator, args.queries, args.algorithm,
        workers=args.workers, users=args.users, rate=args.rate,
        queue_capacity=args.queue_capacity, admission=args.admission,
        timeout_seconds=args.timeout, subplan_cache=cache,
        seed=args.seed, time_scale=args.time_scale)
    s = result.summary
    rows = [
        ["offered", s["offered"]],
        ["completed", s["completed"]],
        ["shed", s["shed"]],
        ["timeouts", s["timeouts"]],
        ["errors", s["errors"]],
        ["throughput", f"{s['throughput_qps']:.1f} qps"],
        ["p50 latency", format_seconds(s["p50_latency"])],
        ["p95 latency", format_seconds(s["p95_latency"])],
        ["p99 latency", format_seconds(s["p99_latency"])],
        ["mean queue wait", format_seconds(s["mean_queue_wait"])],
        ["wall clock", format_seconds(result.wall_seconds)],
    ]
    if cache is not None:
        rows.append(["cache hit rate", f"{cache.hit_rate:.1%}"])
    print(format_table(
        ["Metric", "Value"], rows,
        title=f"served {args.workload} x{args.scale:g} — "
              f"{args.algorithm}, {args.workers} workers, "
              f"{args.users} users @ {args.rate:g} qps, "
              f"{args.admission} queue({args.queue_capacity})"))
    return 1 if s["errors"] else 0


def cmd_report(args: argparse.Namespace) -> int:
    summary = write_summary(args.results_dir, args.summary)
    experiments = summary["experiments"]
    rows = [[name, entry["artifact"], entry["queries"],
             format_seconds(entry["measured_seconds"]),
             entry["timeouts"] or "",
             entry.get("finished_at") or ""]
            for name, entry in experiments.items()]
    print(format_table(
        ["Experiment", "Paper artifact", "Queries", "Measured", "Timeouts",
         "Finished"],
        rows, title=f"{len(rows)} artifacts merged into {args.summary}"))
    return 0 if experiments else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"list": cmd_list, "run": cmd_run, "report": cmd_report,
                "serve": cmd_serve}
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
