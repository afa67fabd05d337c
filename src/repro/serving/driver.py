"""The workload driver: one arrival loop over either of the server's clocks.

For each arrival in schedule order the loop advances the
:class:`~repro.serving.server.EngineServer`'s clock to its scheduled time
and submits it.  :func:`run_served` does so on the wall clock and executes
the queries (``bench_serving`` and ``python -m repro.cli serve`` run it);
:func:`simulate_served` does so on the virtual clock from given service
times, executing nothing, so the exact admission/shed/timeout tests
assert the production rules with no threads and no sleeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.plan.logical import Query
from repro.report import WorkloadResult
from repro.serving.admission import AdmissionPolicy
from repro.serving.reporter import latency_summary
from repro.serving.schedule import Arrival
from repro.serving.server import (
    EngineServer,
    QueryOutcome,
    QueryTicket,
    ServingConfig,
)
from repro.storage.database import Database


@dataclass
class ServingResult:
    """Everything one served run produced."""

    outcomes: list[QueryOutcome]
    summary: dict[str, Any]
    wall_seconds: float

    def workload_result(self, algorithm: str) -> WorkloadResult:
        """The executed queries as a harness-shaped :class:`WorkloadResult`.

        Shed arrivals never executed, so they carry no report and are not
        included; the serving ``summary`` accounts for them separately.
        """
        result = WorkloadResult(algorithm=algorithm)
        result.reports = [o.report for o in self.outcomes
                          if o.report is not None]
        return result


def run_served(database: Database, queries: Sequence[Query],
               arrivals: Sequence[Arrival],
               config: ServingConfig | None = None,
               time_scale: float = 1.0) -> ServingResult:
    """Serve ``queries[arrival.index]`` for every arrival, under load.

    The driver thread submits each arrival at ``arrival.time * time_scale``
    wall seconds after the run starts (never early; an overloaded engine
    makes it late, which the open-loop latency accounting charges to the
    engine).  Arrival/latency fields in the outcomes are reported in
    *schedule* seconds — wall timestamps are divided by ``time_scale`` —
    so summaries from runs at different compressions stay comparable.
    """
    config = config or ServingConfig()
    if time_scale <= 0:
        raise ValueError(f"time_scale must be positive, got {time_scale}")
    for arrival in arrivals:
        if not 0 <= arrival.index < len(queries):
            raise IndexError(
                f"arrival index {arrival.index} outside the "
                f"{len(queries)}-query stream")
    server = EngineServer(database, config)
    server.start()
    _offer(server, arrivals, queries, time_scale)
    outcomes = server.shutdown()
    wall = server.now()
    # Rescale wall-clock timestamps back onto the schedule's time axis so
    # latency percentiles are independent of the compression factor.
    for outcome in outcomes:
        for attr in ("admit_time", "start_time", "finish_time"):
            value = getattr(outcome, attr)
            if value is not None:
                setattr(outcome, attr, value / time_scale)
    return ServingResult(outcomes=outcomes, summary=latency_summary(outcomes),
                         wall_seconds=wall)


def simulate_served(arrivals: Sequence[Arrival], *,
                    workers: int,
                    queue_capacity: int,
                    policy: AdmissionPolicy = AdmissionPolicy.SHED,
                    service_time: Callable[[Arrival], float],
                    timeout_seconds: float | None = None,
                    ) -> tuple[list[QueryOutcome], list[int]]:
    """Serve ``arrivals`` on the virtual clock; nothing is executed.

    Returns ``(outcomes, admission_order)`` where ``admission_order`` lists
    arrival indices in the order admission control accepted them.  Each
    admitted arrival occupies a worker for ``service_time(arrival)``
    seconds, clipped at ``timeout_seconds`` (the cooperative deadline,
    measured from the take).  Every other rule is the
    :class:`~repro.serving.server.EngineServer`'s own.
    """
    by_index = {arrival.index: arrival for arrival in arrivals}
    config = ServingConfig(workers=workers, queue_capacity=queue_capacity,
                           admission=policy, timeout_seconds=timeout_seconds)
    server = EngineServer(
        None, config,
        service_time=lambda ticket: service_time(by_index[ticket.index]))
    admitted = _offer(server, arrivals, None, 1.0)
    return server.shutdown(), admitted


def _offer(server: EngineServer, arrivals: Sequence[Arrival],
           queries: Sequence[Query] | None, time_scale: float) -> list[int]:
    """Submit every arrival on schedule; the indices admitted, in order."""
    admitted = []
    for arrival in sorted(arrivals, key=lambda a: (a.time, a.user_id)):
        server.advance(arrival.time * time_scale)
        ticket = QueryTicket(
            index=arrival.index,
            query=None if queries is None else queries[arrival.index],
            user_id=arrival.user_id, arrival_time=arrival.time)
        if server.submit(ticket):
            admitted.append(arrival.index)
    return admitted
