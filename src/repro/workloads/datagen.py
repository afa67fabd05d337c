"""Synthetic data-generation helpers.

The generators inject the two data characteristics that make the Join Order
Benchmark hard for PostgreSQL's estimator (Section 2.1 of the paper):

* **skew** -- foreign-key fan-outs follow (truncated) Zipf distributions, so
  a few "popular" dimension rows have orders of magnitude more matching fact
  rows than the average the estimator assumes;
* **correlation** -- filter columns are generated as functions of other
  columns (popularity, id ranges), so conjunctive predicates and
  filter-then-join patterns violate the independence assumption.
"""

from __future__ import annotations

import numpy as np


def zipf_choice(rng: np.random.Generator, n_values: int, size: int,
                skew: float = 1.3) -> np.ndarray:
    """Draw ``size`` values in ``[0, n_values)`` with a Zipf-like popularity."""
    if n_values <= 0:
        raise ValueError("n_values must be positive")
    ranks = np.arange(1, n_values + 1, dtype=float)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    return rng.choice(n_values, size=size, p=weights)


def skewed_fanout_choice(rng: np.random.Generator, n_values: int, size: int,
                         sigma: float = 1.4, cap_factor: float = 20.0) -> np.ndarray:
    """Draw foreign-key values with skewed but *bounded* fan-out.

    Per-value popularity weights are log-normal with parameter ``sigma`` and
    capped at ``cap_factor`` times the mean weight, so popular dimension rows
    receive many more fact rows than the average (breaking the uniformity
    assumption) while the worst-case fan-out stays bounded -- which keeps
    fact-fact join results large but materializable by a pure-Python engine.

    Value ``0`` is the most popular, ``n_values - 1`` the least.
    """
    if n_values <= 0:
        raise ValueError("n_values must be positive")
    weights = rng.lognormal(mean=0.0, sigma=sigma, size=n_values)
    weights = np.minimum(weights, cap_factor * weights.mean())
    weights[::-1].sort()  # descending: index 0 is the hottest value
    weights /= weights.sum()
    return rng.choice(n_values, size=size, p=weights)


def correlated_ints(rng: np.random.Generator, base: np.ndarray, low: int, high: int,
                    correlation: float = 0.7) -> np.ndarray:
    """Integers in ``[low, high]`` correlated with ``base`` (rank correlation).

    ``correlation`` = 1.0 makes the output a monotone function of ``base``;
    0.0 makes it independent uniform noise.
    """
    if high <= low:
        raise ValueError("high must exceed low")
    span = high - low
    base = np.asarray(base, dtype=float)
    base_span = base.max() - base.min()
    normalized = (base - base.min()) / base_span if base_span > 0 else np.zeros_like(base)
    noise = rng.random(len(base))
    mixed = correlation * normalized + (1.0 - correlation) * noise
    return (low + np.clip(mixed, 0, 1) * span).astype(np.int64)


def string_pool(prefix: str, count: int) -> np.ndarray:
    """A deterministic pool of distinct strings (``prefix_0000`` ...)."""
    return np.array([f"{prefix}_{i:05d}" for i in range(count)], dtype=object)


def categorical(rng: np.random.Generator, values: list, probabilities: list[float],
                size: int) -> np.ndarray:
    """Draw from an explicit categorical distribution (values may be strings)."""
    probs = np.asarray(probabilities, dtype=float)
    probs = probs / probs.sum()
    idx = rng.choice(len(values), size=size, p=probs)
    return np.array(values, dtype=object)[idx]


def sequential_ids(count: int, start: int = 1) -> np.ndarray:
    """Primary-key column ``start .. start + count - 1``."""
    return np.arange(start, start + count, dtype=np.int64)
