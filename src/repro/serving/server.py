"""The engine server: a worker-thread pool executing admitted queries.

Each worker owns a *session view* of the shared database
(:meth:`~repro.storage.database.Database.session_view`) and its own
algorithm runner built by :func:`~repro.reopt.registry.make_algorithm` —
base tables, statistics, and indexes are shared read-only across the
pool, while materialized temporaries (the one thing re-optimization
policies mutate) stay private per worker.  The only *shared mutable*
engine state is the optional
:class:`~repro.executor.subplan_cache.SubplanCache`, which is internally
lock-protected and bound by origin so every session view hits the same
entries.

Per-query timeouts reuse the engine's cooperative deadline
(:class:`~repro.reopt.base.AlgorithmBase` checks it between execution
steps and unwinds with a clean ``QueryTimeout``): the budget starts when
a worker *dequeues* the request, queue wait excluded, and a timed-out
query releases its worker and its session temporaries like any other
completion.  Nothing is killed mid-operator, so a cancelled query can
never leave shared state torn.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.executor.subplan_cache import SubplanCache
from repro.plan.logical import Query
from repro.report import ExecutionReport
from repro.reopt.registry import make_algorithm
from repro.serving.admission import AdmissionPolicy, AdmissionQueue
from repro.storage.database import Database


@dataclass
class ServingConfig:
    """Knobs of one served run (the bench_serving sweep axes live here)."""

    algorithm: str = "QuerySplit"
    workers: int = 4
    queue_capacity: int = 16
    admission: AdmissionPolicy = AdmissionPolicy.SHED
    #: Per-query execution budget, measured from dequeue (queue wait is
    #: reported separately).  ``None`` disables timeouts.
    timeout_seconds: float | None = 30.0
    collect_statistics: bool = True
    subplan_cache: SubplanCache | None = None
    #: Retain each query's final table on its outcome (differential tests
    #: compare served results against the sequential harness); off by
    #: default so large served runs do not pin every result.
    keep_results: bool = False


@dataclass
class QueryTicket:
    """One admitted unit of work: a query plus its scheduled arrival."""

    index: int
    query: Query
    user_id: int
    arrival_time: float
    submit_time: float = 0.0


@dataclass
class QueryOutcome:
    """What happened to one arrival (admitted *or* shed)."""

    index: int
    user_id: int
    query_name: str
    arrival_time: float
    shed: bool = False
    start_time: float | None = None
    finish_time: float | None = None
    worker: int | None = None
    timed_out: bool = False
    report: ExecutionReport | None = None
    error: str | None = None

    @property
    def latency(self) -> float | None:
        """Arrival-to-completion seconds (None for shed requests)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    @property
    def queue_wait(self) -> float | None:
        """Seconds between arrival and a worker picking the query up."""
        if self.start_time is None:
            return None
        return self.start_time - self.arrival_time


class EngineServer:
    """Admission queue + worker threads over one shared database."""

    def __init__(self, database: Database, config: ServingConfig | None = None):
        self.config = config or ServingConfig()
        if self.config.workers < 1:
            raise ValueError(f"need >= 1 worker, got {self.config.workers}")
        self.database = database
        self.queue = AdmissionQueue(self.config.queue_capacity,
                                    self.config.admission)
        self.outcomes: list[QueryOutcome] = []
        self._outcome_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the epoch mark (the run's shared time axis)."""
        return time.perf_counter() - self._epoch

    def mark_epoch(self) -> None:
        """Reset the time axis to *now* (the driver calls this at t=0)."""
        self._epoch = time.perf_counter()

    def start(self) -> None:
        """Spawn the worker pool."""
        if self._threads:
            raise RuntimeError("EngineServer already started")
        for worker_id in range(self.config.workers):
            thread = threading.Thread(target=self._worker_loop,
                                      args=(worker_id,),
                                      name=f"serving-worker-{worker_id}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)

    def submit(self, ticket: QueryTicket) -> bool:
        """Offer one request to admission control; False means shed."""
        ticket.submit_time = self.now()
        if self.queue.offer(ticket):
            return True
        self._record(QueryOutcome(
            index=ticket.index, user_id=ticket.user_id,
            query_name=ticket.query.name, arrival_time=ticket.arrival_time,
            shed=True))
        return False

    def shutdown(self) -> list[QueryOutcome]:
        """Close admission, drain the queue, join workers, return outcomes."""
        self.queue.close()
        for thread in self._threads:
            thread.join()
        with self._outcome_lock:
            return sorted(self.outcomes, key=lambda o: o.index)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _record(self, outcome: QueryOutcome) -> None:
        with self._outcome_lock:
            self.outcomes.append(outcome)

    def _worker_loop(self, worker_id: int) -> None:
        config = self.config
        session = self.database.session_view()
        runner = make_algorithm(
            config.algorithm, session,
            collect_statistics=config.collect_statistics,
            timeout_seconds=config.timeout_seconds,
            subplan_cache=config.subplan_cache)
        while True:
            ticket = self.queue.take()
            if ticket is None:
                return
            outcome = QueryOutcome(
                index=ticket.index, user_id=ticket.user_id,
                query_name=ticket.query.name,
                arrival_time=ticket.arrival_time, worker=worker_id)
            outcome.start_time = self.now()
            try:
                report = runner.run(ticket.query)
                outcome.report = report
                outcome.timed_out = report.timed_out
                if not config.keep_results:
                    report.final_table = None
            except Exception as exc:  # noqa: BLE001 — a query must not kill the pool
                outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.finish_time = self.now()
            self._record(outcome)
