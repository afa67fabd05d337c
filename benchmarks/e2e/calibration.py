"""Machine-speed calibration: a fixed kernel timed throughout a run.

The benchmark runs on a few shared cores whose speed drifts by +-15 % in
phases that last from half a minute to several minutes -- longer than a
run, so medians over a run do not remove it (see README "Noise").  A small
fixed kernel interleaved with the queries drifts with them (correlation
0.9-0.96 between 15-second medians), so every reported time is divided by
the run's median kernel time and multiplied by ``REFERENCE_S``: seconds *at
the reference speed*.  The kernel uses nothing from ``src/``; a change to
the engine cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The kernel's time on this benchmark's home machine in a quiet phase, so
#: that reference-speed seconds read like wall seconds there.
REFERENCE_S = 0.0080
#: Least wall time between two samples taken by ``Calibrator.tick``.
INTERVAL_S = 0.15

_rng = np.random.default_rng(20230601)  # fixed: not an input of any workload
_SMALL = _rng.integers(0, 1000, 40_000)
_KEYS = _rng.integers(0, 1 << 30, 14_000)
_WORDS = [f"k{v}" for v in _rng.integers(0, 5000, 18_000).tolist()]


def kernel() -> int:
    """Half interpreter work (the planner's kind), half numpy work on
    cache-sized and sort-sized arrays (the executor's kind)."""
    counts: dict[str, int] = {}
    for word in _WORDS:
        counts[word] = counts.get(word, 0) + len(word)
    ranked = sorted(counts, key=counts.get)
    total = sum(counts[word] for word in ranked[::3])
    for shift in range(5):
        total += int(((_SMALL * 3 + shift) % 7 == 1).sum())
    order = np.argsort(_KEYS, kind="stable")
    total += int(_KEYS[order[::5]].sum() & 0xFFFF) + int(np.unique(_KEYS).size)
    return total


class Calibrator:
    """Collects kernel timings; ``speed`` turns wall seconds measured over
    the same stretch of the run into reference-speed seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - start)

    def tick(self) -> None:
        """Sample if ``INTERVAL_S`` has passed since the last one."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    @property
    def speed(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
