"""The four workloads: what each builds, how one pass runs, what it reports.

Runs inside the pinned child process started by ``run.py``.  Sizes are
fixed here rather than taken from options so that every run of a
workload measures the same work; ``--seed`` draws the order in which the
(fixed) query stream is offered, anew for every pass, and the paced
phase's Poisson schedule.  The stream itself is not drawn from the seed
because another sqlgen seed moves the served pass from 2.7 s to 5.2 s (a
few expanding joins dominate), which no regression bound could absorb.

Every time reported is in seconds at the reference speed: wall seconds
times ``Calibrator.speed`` of the same phase of the run (calibration.py).
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import zlib
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bench.harness import HarnessConfig, run_query
from repro.executor.subplan_cache import SubplanCache
from repro.serving.admission import AdmissionPolicy
from repro.serving.driver import run_served
from repro.serving.schedule import Arrival, build_arrivals, uniform_users
from repro.serving.server import ServingConfig
from repro.workloads.imdb import build_imdb_database
from repro.workloads.job_queries import job_queries
from repro.workloads.sqlgen import JoinSamplerConfig, RandomQueryGenerator
from repro.workloads.tpch import build_tpch_database, tpch_queries

from benchmarks.e2e import check, tracing
from benchmarks.e2e.calibration import Calibrator

SMOKE_DIVISOR = 3          # --smoke: data scale / 3
SMOKE_JOB_STRIDE = 7       # --smoke: every 7th JOB query (planning does not shrink with scale)
JOB_SCALE = 0.2
TPCH_SCALE = 10.0
SERVED_SCALE = 0.1
SERVED_QUERIES = 1000
SERVED_STREAM_SEED = 0     # sqlgen seed of the fixed served stream
PACED_QUERIES = 500
PACED_RATE = 100.0         # aggregate arrivals per second
PACED_USERS = 8
CALIBRATION_BURST = 10    # kernel samples after each set-up and before each pass
QUEUE_CAPACITY = 16
SERVED_SLICES = 4          # server runs per saturated pass, calibration between them
#: Per-layer metrics that exist only on a served workload (0 elsewhere).
SERVING_ONLY = (
    "serving.queue_wait_p50_ms", "serving.paced_p50_ms", "serving.paced_p90_ms",
    "serving.paced_shed_frac", "serving.generator_lateness_p95_ms",
    "serving.cpu_ms_per_query", "serving.overhead_ms_per_query",
    "serving.cache_hit_rate")
#: Per-layer times measured during set-up, not during the passes.
SETUP_PHASE = ("catalog.setup_analyze_s", "storage.load_s",
               "workloads.datagen_s", "workloads.querygen_s")


def _scale(scale: float, smoke: bool) -> float:
    return scale / SMOKE_DIVISOR if smoke else scale


def _job_queries(_db, smoke: bool):
    queries = job_queries()
    return queries[::SMOKE_JOB_STRIDE] if smoke else queries


def _tpch_queries(_db, _smoke: bool):
    # q9's join graph is cyclic and QuerySplit returns a wrong sum for it
    # (200x the baselines' and the brute-force answer); left out until fixed.
    return [q for q in tpch_queries() if q.name != "tpch-q9"]


def _served_queries(db, smoke: bool):
    generator = RandomQueryGenerator(
        db, seed=SERVED_STREAM_SEED,
        join_config=JoinSamplerConfig(min_joins=1, max_joins=3))
    return generator.generate(SERVED_QUERIES // 10 if smoke else SERVED_QUERIES)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Golden file of the query stream; workloads on one stream share it,
    #: which is what holds QuerySplit and the baselines to the same answers.
    stream: str
    policies: tuple[str, ...]
    #: Tail percentile of per-query latency: the highest with >= 10
    #: samples beyond it at this workload's sample count.
    tail: int
    setup_repeats: int
    build_db: Callable
    make_queries: Callable
    served: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("job_querysplit", "job", ("QuerySplit",), tail=85, setup_repeats=9,
             build_db=lambda smoke: build_imdb_database(scale=_scale(JOB_SCALE, smoke)),
             make_queries=_job_queries),
    # Default first: the warm-up pass runs the first policy only, and
    # Default's plans reach the largest intermediates (heap high-water).
    Workload("job_baselines", "job", ("Default", "Reopt", "Pop"), tail=95,
             setup_repeats=9,
             build_db=lambda smoke: build_imdb_database(scale=_scale(JOB_SCALE, smoke)),
             make_queries=_job_queries),
    Workload("tpch_scan", "tpch", ("QuerySplit", "Default"), tail=75, setup_repeats=3,
             build_db=lambda smoke: build_tpch_database(scale=_scale(TPCH_SCALE, smoke)),
             make_queries=_tpch_queries),
    Workload("gen_served", "gen", ("QuerySplit",), tail=95, setup_repeats=7,
             build_db=lambda smoke: build_imdb_database(scale=_scale(SERVED_SCALE, smoke)),
             make_queries=_served_queries, served=True),
)}


# ----------------------------------------------------------------------
# One pass over the stream
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    """What one pass over the stream measured; samples are keyed by
    ``(policy, query name)``."""

    wall: float = 0.0      # stream_s: the engine's time
    loop_s: float = 0.0    # the whole pass, this file's checking included
    exec_s: float = 0.0
    latency: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    plan_crcs: dict = field(default_factory=dict)
    stats: Counter = field(default_factory=Counter)
    serving: dict = field(default_factory=dict)
    tracer: tracing.Tracer | None = None

    def record(self, key, report, wall: float) -> None:
        self.latency[key] = wall
        self.exec_s += report.total_time
        failed = report.timed_out or report.final_table is None
        self.digests[key] = None if failed else check.digest(report.final_table)
        self.plan_crcs[key] = check.plan_crc(report)
        family = "core" if report.algorithm == "QuerySplit" else "reopt"
        self.stats[f"{family}_queries"] += 1
        self.stats[f"{family}_iterations"] += len(report.iterations)
        self.stats[f"{family}_replans"] += sum(it.replanned for it in report.iterations)
        self.stats[f"{family}_materializations"] += report.materializations


def sequential_pass(db, queries, policies, tracer=None, clock=None) -> PassResult:
    """Closed loop, one client: each policy runs the whole stream in turn.
    ``clock`` samples the machine's speed between queries, outside their
    timings."""
    result = PassResult(tracer=tracer)
    config = HarnessConfig()
    for policy in policies:
        for query in queries:
            with tracing.span(tracer, "bench.query", query.name):
                start = time.perf_counter()
                report = run_query(db, query, policy, config)
                wall = time.perf_counter() - start
            result.record((policy, query.name), report, wall)
            if clock is not None:
                clock.tick()
    result.wall = sum(result.latency.values())
    return result


def served_pass(db, queries, policies, tracer=None, clock=None) -> PassResult:
    """Saturated phase: the stream offered at once under BLOCK admission,
    i.e. a closed loop whose queue is always full.  While the server runs
    both cores are busy, so the stream is served in ``SERVED_SLICES``
    slices that share the pass's cache and ``clock`` samples the machine's
    speed between them."""
    result = PassResult(tracer=tracer)
    (policy,) = policies
    cache = SubplanCache()
    config = ServingConfig(algorithm=policy, workers=1,
                           queue_capacity=QUEUE_CAPACITY,
                           admission=AdmissionPolicy.BLOCK,
                           subplan_cache=cache, keep_results=True)
    edges = [len(queries) * k // SERVED_SLICES for k in range(SERVED_SLICES + 1)]
    outcomes = []
    cpu = 0.0
    for low, high in zip(edges, edges[1:]):
        if clock is not None and low:
            clock.sample(CALIBRATION_BURST)
        arrivals = [Arrival(time=0.0, user_id=0, user_seq=i, index=i)
                    for i in range(low, high)]
        cpu -= time.process_time()
        served = run_served(db, queries, arrivals, config)
        cpu += time.process_time()
        outcomes += served.outcomes
        result.wall += max(o.finish_time or 0.0 for o in served.outcomes)
    for outcome in outcomes:
        key = (policy, outcome.query_name)
        if outcome.report is None:  # shed or errored
            result.digests[key] = None
            continue
        result.record(key, outcome.report, outcome.finish_time - outcome.start_time)
    result.serving = {"cpu_s": cpu, "hit_rate": cache.hit_rate}
    if tracer is not None:
        result.serving["queue_waits"] = [
            o.start_time - tracer.submits[o.index][1]
            for o in outcomes if o.start_time is not None]
    return result


def paced_phase(db, queries, seed: int) -> dict[str, float]:
    """Open loop: Poisson users at a fixed aggregate rate, SHED admission,
    latency counted from the time each request was due."""
    n = min(PACED_QUERIES, len(queries))
    users = uniform_users(PACED_USERS, PACED_RATE / PACED_USERS,
                          -(-n // PACED_USERS))
    arrivals = build_arrivals(users, seed=seed, max_events=n)
    config = ServingConfig(algorithm="QuerySplit", workers=1,
                           queue_capacity=QUEUE_CAPACITY,
                           admission=AdmissionPolicy.SHED,
                           subplan_cache=SubplanCache())
    tracer = tracing.Tracer()
    with tracer.installed():
        served = run_served(db, queries, arrivals, config)
    done = [o.finish_time - o.arrival_time for o in served.outcomes
            if o.report is not None and not o.timed_out]
    late = [submit - due for due, submit in tracer.submits.values()]
    return {
        "serving.paced_p50_ms": 1e3 * float(np.percentile(done, 50)),
        "serving.paced_p90_ms": 1e3 * float(np.percentile(done, 90)),
        "serving.paced_shed_frac": 1.0 - len(done) / len(arrivals),
        "serving.generator_lateness_p95_ms": 1e3 * float(np.percentile(late, 95)),
    }


# ----------------------------------------------------------------------
# A whole run of one workload
# ----------------------------------------------------------------------
def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            smoke: bool, regen_golden: bool, span_path) -> dict:
    """Set up, warm up, run timed passes for ``seconds``, check, summarize."""
    setup_tracer = tracing.Tracer() if trace else None
    setup_times = []
    setup_clock, clock = Calibrator(), Calibrator()
    db = queries = None
    setups = 1 if smoke else workload.setup_repeats
    for _ in range(setups):
        del db, queries
        gc.collect()
        start = time.perf_counter()
        with (setup_tracer.installed() if trace else nullcontext()):
            with tracing.span(setup_tracer, "workloads.build_db"):
                db = workload.build_db(smoke)
            with tracing.span(setup_tracer, "workloads.querygen"):
                queries = workload.make_queries(db, smoke)
        setup_times.append(time.perf_counter() - start)
        setup_clock.sample(CALIBRATION_BURST)

    rng = np.random.default_rng(seed)

    def shuffled():
        return [queries[i] for i in rng.permutation(len(queries))]

    run_pass = served_pass if workload.served else sequential_pass

    # Warm-up under the first policy: first touch of the heap (seconds on
    # this VM) and the database's lazily decoded columns, shared by all.
    warmup = time.perf_counter()
    run_pass(db, shuffled(), workload.policies[:1])
    warmup = time.perf_counter() - warmup

    plain: list[PassResult] = []
    traced: list[PassResult] = []
    # Three plain passes, so that the per-query median sheds one outlier
    # (one timing of a query varies by 15 %, with spikes); a traced run
    # alternates plain and traced passes and needs one of each.
    needed = 1 if smoke or trace else 3
    began = time.perf_counter()
    while True:
        gc.collect()
        clock.sample(CALIBRATION_BURST)
        calibrated = len(clock.samples)
        start = time.perf_counter()
        if trace and len(traced) < len(plain):
            tracer = tracing.Tracer()
            with tracer.installed():
                result = run_pass(db, shuffled(), workload.policies, tracer, clock)
            traced.append(result)
        else:
            result = run_pass(db, shuffled(), workload.policies, clock=clock)
            plain.append(result)
        result.loop_s = (time.perf_counter() - start
                         - sum(clock.samples[calibrated:]))
        elapsed = time.perf_counter() - began
        mean_pass = elapsed / (len(plain) + len(traced))
        # Stop at the pass count whose total lies nearest to ``seconds``.
        if (len(plain) >= needed and len(traced) == (len(plain) if trace else 0)
                and elapsed + 0.5 * mean_pass >= seconds):
            break

    passes = plain + traced
    failed, problems = _check(workload, passes, smoke, regen_golden)
    result = {
        "workload": workload.name,
        "attempted": sum(len(p.digests) for p in passes),
        "failed": failed,
        "problems": problems[:5],
        "passes": len(plain),
        "traced_passes": len(traced),
        "samples": len(plain[0].latency),
        "tail_percentile": workload.tail,
        "phase_seconds": {"setup": sum(setup_times), "warmup": warmup,
                          "timed": elapsed},
        "pass_seconds": [p.wall for p in plain],
        # wall seconds = reported seconds / speed
        "calibration": {"samples": len(clock.samples), "speed": clock.speed,
                        "setup_samples": len(setup_clock.samples),
                        "setup_speed": setup_clock.speed},
        "end_to_end": _end_to_end(workload, setup_times, plain,
                                  setup_clock.speed, clock.speed),
    }
    if trace:
        paced = paced_phase(db, shuffled(), seed) if workload.served else None
        result["per_layer"] = _per_layer(setup_tracer, setups, plain, traced, paced,
                                         setup_clock.speed, clock.speed)
        tracing.write_spans(span_path, traced[-1].tracer.spans)
    return result


def _check(workload, passes, smoke, regen_golden) -> tuple[int, list[str]]:
    """Count samples that failed, disagree across policies, or miss golden."""
    wanted = {query: d for (policy, query), d in passes[0].digests.items()
              if policy == workload.policies[0]}
    if regen_golden:
        check.write_golden(workload.stream, wanted)
    if not smoke:  # smoke runs at another scale: policies check each other
        wanted = check.load_golden(workload.stream)
        if wanted is None:
            raise SystemExit(f"no golden/{workload.stream}.json: run --regen-golden")
    failed, problems = 0, []
    for index, result in enumerate(passes):
        for (policy, query), got in result.digests.items():
            want = wanted.get(query)
            if got is None or got != want:
                failed += 1
                problems.append(f"pass {index} {policy} {query}: got {got}, want {want}")
    return failed, problems


def _end_to_end(workload, setup_times, plain, setup_speed, speed) -> dict[str, float]:
    per_query = [statistics.median(p.latency[key] for p in plain)
                 for key in plain[0].latency]
    return {
        "setup_s": setup_speed * statistics.median(setup_times),
        "stream_s": speed * statistics.median(p.wall for p in plain),
        "paper_exec_s": speed * statistics.median(p.exec_s for p in plain),
        "query_p50_ms": speed * 1e3 * float(np.percentile(per_query, 50)),
        "query_tail_ms": speed * 1e3 * float(np.percentile(per_query, workload.tail)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _per_layer(setup_tracer, setups, plain, traced, paced,
               setup_speed, speed) -> dict[str, float]:
    """Per-layer numbers: means over the traced passes (and over set-ups).
    ``paced`` is the paced phase's metrics, None on a sequential workload."""
    setup_s, setup_self, _ = tracing.totals(setup_tracer.spans)
    n = len(traced)
    seconds, self_s, calls, counters, stats = (Counter() for _ in range(5))
    for result in traced:
        for total, part in zip((seconds, self_s, calls),
                               tracing.totals(result.tracer.spans)):
            total.update(part)
        counters.update(result.tracer.counters)
        stats.update(result.stats)
    traced_wall = statistics.mean(p.wall for p in traced)
    plain_wall = statistics.median(p.wall for p in plain)

    def per(total, count):
        return total / count if count else 0.0

    metrics = {
        "optimizer.plan_s": seconds["optimizer.plan"] / n,
        "optimizer.plan_calls": calls["optimizer.plan"] / n,
        "optimizer.estimate_s": seconds["optimizer.estimate"] / n,
        "optimizer.estimate_calls": calls["optimizer.estimate"] / n,
        "optimizer.share": (seconds["optimizer.plan"] + seconds["optimizer.estimate"])
                           / n / traced_wall,
        "executor.execute_s": seconds["executor.execute"] / n,
        "executor.execute_calls": calls["executor.execute"] / n,
        "executor.scan_s": counters["scan_s"] / n,
        "executor.join_s": counters["join_s"] / n,
        "executor.aggregate_s": (counters["aggregate_s"]
                                 + seconds["executor.aggregate"]) / n,
        "executor.scan_pruned_ratio": per(counters["scan_blocks_pruned"],
                                          counters["scan_blocks_total"]),
        "executor.fused_rows_touched": counters["fused_rows_touched"] / n,
        "executor.semijoin_pruned_rows": counters["semijoin_pruned_rows"] / n,
        "executor.materialized_bytes": counters["materialized_bytes"] / n,
        "catalog.analyze_s": seconds["catalog.analyze"] / n,
        "catalog.analyze_calls": calls["catalog.analyze"] / n,
        "catalog.setup_analyze_s": setup_s["catalog.setup_analyze"] / setups,
        "storage.load_s": setup_self["storage.load"] / setups,
        "storage.temp_register_s": seconds["storage.temp_register"] / n,
        "storage.temp_tables": counters["temp_tables"] / n,
        "storage.temp_bytes_peak": max(
            p.tracer.counters["temp_bytes_peak"] for p in traced),
        "workloads.datagen_s": setup_self["workloads.build_db"] / setups,
        "workloads.querygen_s": setup_s["workloads.querygen"] / setups,
        "core.driver_self_s": self_s["core.run"] / n,
        "core.iterations_per_query": per(stats["core_iterations"],
                                         stats["core_queries"]),
        "core.subqueries_per_query": per(counters["subqueries"],
                                         stats["core_queries"]),
        "reopt.driver_self_s": self_s["reopt.run"] / n,
        "reopt.replans_per_query": per(stats["reopt_replans"],
                                       stats["reopt_queries"]),
        "reopt.materializations_per_query": per(stats["reopt_materializations"],
                                                stats["reopt_queries"]),
        "bench.make_algorithm_s": seconds["bench.make_algorithm"] / n,
        "serving.cache_evictions": counters["cache_evictions"] / n,
        "trace.unattributed_s": statistics.mean(
            p.loop_s - tracing.root_seconds(p.tracer.spans) for p in traced),
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
        "trace.plan_crc32": zlib.crc32(repr((
            sorted(traced[0].plan_crcs.items()),
            sorted(traced[0].tracer.plan_crcs.items()))).encode()),
    }
    if paced is None:
        metrics |= dict.fromkeys(SERVING_ONLY, 0.0)
    else:
        waits = [w for p in traced for w in p.serving["queue_waits"]]
        queries = len(traced[0].latency)
        metrics |= paced | {
            "serving.queue_wait_p50_ms": 1e3 * float(np.percentile(waits, 50)),
            "serving.cpu_ms_per_query": 1e3 * statistics.mean(
                p.serving["cpu_s"] for p in plain) / queries,
            "serving.overhead_ms_per_query": 1e3 * statistics.mean(
                p.wall - sum(p.latency.values()) for p in plain) / queries,
            "serving.cache_hit_rate": statistics.mean(
                p.serving["hit_rate"] for p in plain),
        }
    # Times, like the end-to-end ones, in seconds at the reference speed.
    for name in metrics:
        if name in SETUP_PHASE:
            metrics[name] *= setup_speed
        elif name.endswith(("_s", "_ms", "_ms_per_query")):
            metrics[name] *= speed
    return metrics
