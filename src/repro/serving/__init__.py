"""Concurrent query serving: seeded schedules, one server, two clocks.

Simulated users submit queries on seeded arrival schedules to one
:class:`EngineServer`, which owns the serving rules (a bounded FIFO that
sheds or blocks, workers that take its head, per-query timeouts) on the
wall clock — worker threads over session views sharing one
``SubplanCache`` — or on a virtual clock for the exact tests.  See
ARCHITECTURE.md, "Serving":

* :mod:`repro.serving.schedule`  -- arrival schedules, ``build_arrivals``;
* :mod:`repro.serving.admission` -- the shed-or-block policies;
* :mod:`repro.serving.server`    -- the engine server and its two clocks;
* :mod:`repro.serving.driver`    -- ``run_served`` / ``simulate_served``;
* :mod:`repro.serving.reporter`  -- latency/throughput aggregation.
"""

from repro.serving.admission import AdmissionPolicy
from repro.serving.driver import ServingResult, run_served, simulate_served
from repro.serving.reporter import latency_summary, percentile
from repro.serving.schedule import (
    Arrival,
    Once,
    Repeat,
    UserSpec,
    build_arrivals,
    uniform_users,
)
from repro.serving.server import EngineServer, QueryOutcome, ServingConfig

__all__ = [
    "AdmissionPolicy", "Arrival", "EngineServer", "Once", "QueryOutcome",
    "Repeat", "ServingConfig", "ServingResult", "UserSpec", "build_arrivals",
    "latency_summary", "percentile", "run_served", "simulate_served",
    "uniform_users",
]
