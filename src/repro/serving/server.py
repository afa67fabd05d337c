"""The engine server: the one owner of the serving rules, on two clocks.

One FIFO ``deque`` under one ``Condition`` and three transitions:
:meth:`EngineServer.submit` is an arrival (SHED records a shed outcome on
a full queue, BLOCK makes the submitter wait until the queue has drained
to its low-water mark, ``queue_capacity // 2``), ``_take`` starts the
queue head on a free worker, and ``_finish`` records the completion.

A waiting thread is woken only when it has something to do.  A blocked
submitter waits for the low-water mark and :meth:`~EngineServer.shutdown`
for an empty queue, so ``_take`` notifies only when it leaves the queue
at or below the mark.  A wake-up per take would make the woken thread
take the GIL from a worker in the middle of its query once per query; at
the mark it is once per ``capacity - capacity // 2`` queries, the way a
socket wakes its writers once half its buffer is free.  For capacities 1
and 2 the mark is "one slot free".

On the **wall clock** (the default), :meth:`~EngineServer.start` builds
one session view of the database and one ``make_algorithm`` runner per
worker on the caller's thread, then spawns threads that each loop take →
``runner.run`` → finish.  Temporaries stay private to a session; the only
shared mutable engine state is the lock-protected ``SubplanCache``.  Given
``service_time``, the server runs on a **virtual clock** instead: no
threads, a heap of worker-free times, and a query started at ``t``
finishes at ``t + min(service_time(ticket), timeout)``, so every
trajectory is a pure function of its inputs.

The timeout is the engine's cooperative deadline (``AlgorithmBase`` checks
it between steps and unwinds cleanly), counted from the take.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.executor.subplan_cache import SubplanCache
from repro.plan.logical import Query
from repro.report import ExecutionReport
from repro.reopt.registry import make_algorithm
from repro.serving.admission import AdmissionPolicy
from repro.storage.database import Database


@dataclass
class ServingConfig:
    """Knobs of one served run (the bench_serving sweep axes live here)."""

    algorithm: str = "QuerySplit"
    workers: int = 4
    queue_capacity: int = 16
    admission: AdmissionPolicy = AdmissionPolicy.SHED
    #: Per-query execution budget, measured from the take (queue wait is
    #: reported separately).  ``None`` disables timeouts.
    timeout_seconds: float | None = 30.0
    subplan_cache: SubplanCache | None = None
    #: Retain each query's final table on its outcome (differential tests
    #: compare served results against the sequential harness); off by
    #: default so large served runs do not pin every result.
    keep_results: bool = False


@dataclass
class QueryTicket:
    """One request: a query (None on the virtual clock) and its arrival."""

    index: int
    query: Query | None
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
    admit_time: float | None = None
    start_time: float | None = None
    finish_time: float | None = None
    worker: int | None = None
    timed_out: bool = False
    report: ExecutionReport | None = None
    error: str | None = None


class EngineServer:
    """One admission FIFO and a worker pool over one shared database."""

    def __init__(self, database: Database | None,
                 config: ServingConfig | None = None, *,
                 service_time: Callable[[QueryTicket], float] | None = None):
        self.config = config or ServingConfig()
        if self.config.workers < 1:
            raise ValueError(f"need >= 1 worker, got {self.config.workers}")
        if self.config.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.config.queue_capacity}")
        self.database = database
        self.service_time = service_time
        self.offered = 0
        self.outcomes: list[QueryOutcome] = []
        self._queue: deque[tuple[QueryTicket, QueryOutcome]] = deque()
        self._cond = threading.Condition()
        #: A blocked submitter resumes once at most this many are queued.
        self._low_water = self.config.queue_capacity // 2
        self._closed = False
        self._threads: list[threading.Thread] = []
        self._epoch = time.perf_counter()
        # Virtual clock: the current time and a heap of (free at, worker).
        self._now = 0.0
        self._free = [(0.0, worker) for worker in range(self.config.workers)]

    def now(self) -> float:
        """Seconds since :meth:`start` (the run's shared time axis)."""
        if self.service_time is not None:
            return self._now
        return time.perf_counter() - self._epoch

    def advance(self, until: float) -> None:
        """Let the workers run until ``until`` on the server's time axis."""
        if self.service_time is None:
            delay = until - self.now()
            if delay > 0:
                time.sleep(delay)
            return
        while self._queue and self._free[0][0] <= until:
            self._step()
        self._now = max(self._now, until)

    def _wait_for_worker(self) -> None:
        """With the lock held, wait until a worker has taken a query (on the
        wall clock, one that left the queue at the low-water mark)."""
        if self.service_time is None:
            self._cond.wait()
        else:
            self._step()

    def _step(self) -> None:
        """Virtual clock: the earliest-free worker takes the queue head."""
        free_at, worker = heapq.heappop(self._free)
        self._now = max(self._now, free_at)
        outcome = self._work(worker, self._simulate)
        heapq.heappush(self._free, (outcome.finish_time, worker))

    def start(self) -> None:
        """Build every worker's session view and runner, spawn the workers,
        and mark t=0.  Building on the caller's thread makes a bad
        configuration (an unknown algorithm) raise here instead of killing
        a worker and stranding the queue."""
        if self._threads:
            raise RuntimeError("EngineServer already started")
        if self.service_time is None:
            config = self.config
            runners = [make_algorithm(config.algorithm,
                                      self.database.session_view(),
                                      timeout_seconds=config.timeout_seconds,
                                      subplan_cache=config.subplan_cache)
                       for _ in range(config.workers)]
            self._threads = [
                threading.Thread(target=self._serve,
                                 args=(worker, partial(self._execute, runner)),
                                 name=f"serving-worker-{worker}", daemon=True)
                for worker, runner in enumerate(runners)]
            for thread in self._threads:
                thread.start()
        self._epoch = time.perf_counter()

    def shutdown(self) -> list[QueryOutcome]:
        """Drain the queue, stop the workers, return outcomes by index.

        Raises unless every offered ticket has exactly one outcome:
        offered == completed (timeouts included) + shed + errors.
        """
        with self._cond:
            while self._queue:
                self._wait_for_worker()
            self._closed = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()
        if len(self.outcomes) != self.offered:
            raise RuntimeError(f"{self.offered} tickets offered but "
                               f"{len(self.outcomes)} outcomes recorded")
        return sorted(self.outcomes, key=lambda o: o.index)

    def submit(self, ticket: QueryTicket) -> bool:
        """Offer one request to admission control; False means shed."""
        ticket.submit_time = self.now()
        outcome = QueryOutcome(
            index=ticket.index, user_id=ticket.user_id,
            query_name=ticket.query.name if ticket.query is not None else "",
            arrival_time=ticket.arrival_time)
        with self._cond:
            if self._closed:
                raise RuntimeError("cannot submit to a shut-down EngineServer")
            self.offered += 1
            if len(self._queue) >= self.config.queue_capacity:
                if self.config.admission == AdmissionPolicy.SHED:
                    outcome.shed = True
                    self.outcomes.append(outcome)
                    return False
                while len(self._queue) > self._low_water:
                    self._wait_for_worker()
            outcome.admit_time = self.now()
            self._queue.append((ticket, outcome))
            self._cond.notify_all()
        return True

    def _take(self, worker: int) -> tuple[QueryTicket, QueryOutcome] | None:
        """Start the queue head on ``worker``; None once shut down."""
        with self._cond:
            while not self._queue and not self._closed:
                self._cond.wait()
            if not self._queue:
                return None
            ticket, outcome = self._queue.popleft()
            outcome.worker = worker
            outcome.start_time = self.now()
            if len(self._queue) <= self._low_water:
                # A blocked submitter, or shutdown() draining, may resume.
                self._cond.notify_all()
        return ticket, outcome

    def _finish(self, outcome: QueryOutcome) -> None:
        """Record one completion (errored and timed-out ones included)."""
        if outcome.finish_time is None:
            outcome.finish_time = self.now()
        with self._cond:
            self.outcomes.append(outcome)

    def _work(self, worker: int, run) -> QueryOutcome | None:
        """One take → run → finish; None once shut down."""
        taken = self._take(worker)
        if taken is None:
            return None
        ticket, outcome = taken
        try:
            run(ticket, outcome)
        except Exception as exc:  # noqa: BLE001 — a query must not kill the pool
            outcome.error = f"{type(exc).__name__}: {exc}"
        self._finish(outcome)
        return outcome

    def _serve(self, worker: int, run) -> None:
        """Wall clock: one worker thread's loop."""
        while self._work(worker, run) is not None:
            pass

    def _execute(self, runner, ticket: QueryTicket,
                 outcome: QueryOutcome) -> None:
        """Wall clock: run the query on this worker's runner."""
        report = runner.run(ticket.query)
        outcome.report = report
        outcome.timed_out = report.timed_out
        if not self.config.keep_results:
            report.final_table = None

    def _simulate(self, ticket: QueryTicket, outcome: QueryOutcome) -> None:
        """Virtual clock: finish after the service time, clipped at the
        timeout as the cooperative deadline clips a real query."""
        service = self.service_time(ticket)
        timeout = self.config.timeout_seconds
        outcome.timed_out = timeout is not None and service > timeout
        outcome.finish_time = outcome.start_time + (
            timeout if outcome.timed_out else service)
