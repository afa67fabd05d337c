"""Pessimistic (upper-bound) cardinality estimation.

Stands in for the two sketch-based robust baselines of the paper:

* **Pessimistic Cardinality Estimation** (Cai et al.) derives upper bounds on
  join sizes from degree sketches; we reproduce the bound's behaviour using
  the statistics we already have: the join selectivity of a predicate is
  bounded by the *maximum frequency* of the join key on the dimension side
  (``|R join S| <= |R| * maxdeg_S(key)``), falling back to
  ``1 / min(ndv_l, ndv_r)`` when no frequency information is available.
  Estimates are therefore never smaller -- and usually much larger -- than
  the default estimator's, which pushes the optimizer toward "safe" hash
  plans.

* **USE** ("Simplicity Done Right for Join Ordering") uses the same
  upper-bound sketches, additionally disables nested-loop joins, and is
  non-adaptive; its row of :data:`repro.reopt.registry.ALGORITHMS` pairs
  this estimator with an enumerator configuration that bans nested-loop
  joins.
"""

from __future__ import annotations

from repro.optimizer.cardinality import DefaultCardinalityEstimator


class PessimisticCardinalityEstimator(DefaultCardinalityEstimator):
    """Upper-bound flavoured estimator (never underestimates joins)."""

    def join_selectivity(self, pred, relations) -> float:
        from repro.optimizer.cardinality import _relation_covering

        left_rel = _relation_covering(relations, pred.left.alias)
        right_rel = _relation_covering(relations, pred.right.alias)
        left_stats = self.column_stats(left_rel, pred.left)
        right_stats = self.column_stats(right_rel, pred.right)

        # Upper bound via the maximum per-key frequency on either side.
        max_freq = 0.0
        for stats in (left_stats, right_stats):
            if stats.mcv_fractions:
                max_freq = max(max_freq, max(stats.mcv_fractions))
        if max_freq > 0.0:
            return min(max_freq, 1.0)
        ndv = max(min(left_stats.effective_ndv(), right_stats.effective_ndv()), 1)
        return 1.0 / ndv
