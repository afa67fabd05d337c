"""Latency/throughput aggregation for served runs.

Works over the :class:`~repro.serving.server.QueryOutcome` records the
engine server returns on either clock, so the same reporter summarizes
wall-clock benches and the deterministic virtual-clock tests.

Latency is **arrival-to-completion** (queue wait included), measured
against the *scheduled* arrival time: an open-loop driver that falls
behind still charges the delay to the engine, avoiding coordinated
omission.  Throughput counts completed queries over the span from first
arrival to last completion.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

#: The percentiles every serving artifact reports.
PERCENTILES = (50, 95, 99)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy semantics); 0.0 when empty."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def latency_summary(outcomes: Sequence[Any]) -> dict[str, Any]:
    """Aggregate one served run into the JSON-safe reporter shape."""
    completed = [o for o in outcomes
                 if not o.shed and o.finish_time is not None
                 and o.error is None]
    latencies = [o.finish_time - o.arrival_time for o in completed]
    waits = [o.start_time - o.arrival_time for o in completed
             if o.start_time is not None]
    shed = sum(1 for o in outcomes if o.shed)
    errors = sum(1 for o in outcomes if o.error)
    timeouts = sum(1 for o in completed if o.timed_out)

    if completed:
        first_arrival = min(o.arrival_time for o in completed)
        last_finish = max(o.finish_time for o in completed)
        span = max(last_finish - first_arrival, 1e-9)
        throughput = len(completed) / span
    else:
        span = 0.0
        throughput = 0.0

    summary: dict[str, Any] = {
        "offered": len(outcomes),
        "completed": len(completed),
        "shed": shed,
        "errors": errors,
        "timeouts": timeouts,
        "span_seconds": span,
        "throughput_qps": throughput,
        "mean_latency": float(np.mean(latencies)) if latencies else 0.0,
        "max_latency": float(np.max(latencies)) if latencies else 0.0,
        "mean_queue_wait": float(np.mean(waits)) if waits else 0.0,
    }
    for q in PERCENTILES:
        summary[f"p{q}_latency"] = percentile(latencies, q)
    summary["p95_queue_wait"] = percentile(waits, 95)
    return summary
