"""Robust query processing helpers: FS plan robustness and OptRange.

* **FS** (Wolf et al., "Robustness metrics for relational query execution
  plans") selects plans by a weighted combination of the estimated cost and
  the cost the plan would incur if cardinalities were substantially larger.
  We realize it through :class:`repro.optimizer.join_enum.EnumeratorConfig`'s
  ``robustness_blowup`` / ``robustness_weight`` knobs; :func:`fs_config`
  returns the configuration used by the FS baseline.

* **OptRange** (Wolf et al., "On the calculation of optimality ranges")
  derives, for each plan operator, the range of actual cardinalities within
  which the current plan remains optimal.  We approximate the range with a
  multiplicative validity window around the estimate; the OptRange baseline
  (see :mod:`repro.reopt`) re-optimizes only when an observed cardinality
  falls outside its window -- its intended use as "a heuristic to reduce
  unnecessary re-optimizations".
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.optimizer.join_enum import EnumeratorConfig


def fs_config(base: EnumeratorConfig | None = None,
              blowup: float = 8.0, weight: float = 0.5) -> EnumeratorConfig:
    """Enumerator configuration used by the FS robust-plan baseline."""
    return replace(base or EnumeratorConfig(),
                   robustness_blowup=blowup, robustness_weight=weight)


def use_config(base: EnumeratorConfig | None = None) -> EnumeratorConfig:
    """Enumerator configuration used by the USE baseline (no nested loops)."""
    return replace(base or EnumeratorConfig(),
                   enable_index_nl=False, enable_hash=True, enable_nl=False)


@dataclass(frozen=True)
class OptimalityRange:
    """Validity window of an estimate: the plan is kept while the actual
    cardinality stays within ``[estimate / shrink, estimate * grow]``."""

    estimate: float
    shrink: float = 4.0
    grow: float = 4.0

    @property
    def low(self) -> float:
        """Lower bound of the validity window."""
        return self.estimate / self.shrink

    @property
    def high(self) -> float:
        """Upper bound of the validity window."""
        return self.estimate * self.grow

    def contains(self, actual: float) -> bool:
        """True if the observed cardinality keeps the current plan optimal."""
        return self.low <= actual <= self.high


def optimality_range(estimate: float, shrink: float = 4.0,
                     grow: float = 4.0) -> OptimalityRange:
    """Build the optimality range around an estimated cardinality."""
    return OptimalityRange(estimate=max(estimate, 1.0), shrink=shrink, grow=grow)
