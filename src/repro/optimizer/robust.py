"""Robust query processing helpers: the FS and USE planner configurations.

* **FS** (Wolf et al., "Robustness metrics for relational query execution
  plans") selects plans by a weighted combination of the estimated cost and
  the cost the plan would incur if cardinalities were substantially larger.
  We realize it through :class:`repro.optimizer.join_enum.EnumeratorConfig`'s
  ``robustness_blowup`` / ``robustness_weight`` knobs; :func:`fs_config`
  returns the configuration used by the FS baseline.

* **USE** plans without nested loops; :func:`use_config` returns its
  configuration.

OptRange (Wolf et al., "On the calculation of optimality ranges") needs no
helper here: :class:`~repro.reopt.robust_baselines.OptRangeBaseline`
re-optimizes only when an observed cardinality leaves a ±4x window around
the estimate (its ``trigger_threshold``).
"""

from __future__ import annotations

from dataclasses import replace

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
