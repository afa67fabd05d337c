"""Cardinality estimation.

The :class:`DefaultCardinalityEstimator` mirrors PostgreSQL's approach as
described in Section 2.1 of the paper: per-column statistics (MCVs,
histograms, NDV) provide selectivities for single-table predicates, columns
are assumed independent (selectivities multiply), and equi-join selectivity
is ``1 / max(ndv_left, ndv_right)``.  These assumptions are exactly what
causes the underestimated join cardinalities and the exponential error
propagation that motivate re-optimization.

Every estimator answers one question -- "how many rows does this sub-join
produce?" -- through :meth:`CardinalityEstimator.estimate_rows`, which takes
the relations, applicable filters, and internal join predicates of the
sub-join.  The alternative estimators (oracle, noisy, learned, pessimistic)
share this interface so the optimizer is agnostic to which one it is driven
by.

The join enumerator asks that question for every relation subset of a query,
so it goes through :meth:`CardinalityEstimator.subset_estimator`: one callable
per planned query, from relation bitmask to rows.  The base implementation
only assembles the ``estimate_rows`` arguments from precomputed masks; the
default estimator overrides it to compute each scan and join factor once.
Whatever an override caches, it must return bit for bit the float
``estimate_rows`` would -- plans, and the traces that hash them, depend on it.
"""

from __future__ import annotations

from typing import Callable

from repro.catalog.statistics import ColumnStats, DEFAULT_EQ_SELECTIVITY
from repro.catalog.types import DataType
from repro.plan.expressions import (
    Between,
    ColumnRef,
    Comparison,
    InList,
    IsNotNull,
    JoinPredicate,
    OrPredicate,
    Predicate,
    StringContains,
    StringPrefix,
)
from repro.plan.logical import RelationMasks, RelationRef
from repro.storage.database import Database

#: Default selectivity used for string pattern matches (LIKE '%x%').
LIKE_SELECTIVITY = 0.02

#: Default selectivity for prefix matches (LIKE 'x%').
PREFIX_SELECTIVITY = 0.01

#: Minimum estimated row count (a plan node never estimates zero rows).
MIN_ROWS = 1.0


class CardinalityEstimator:
    """Interface every cardinality estimator implements."""

    def __init__(self, database: Database):
        self.database = database

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def estimate_rows(self, relations: tuple[RelationRef, ...],
                      filters: tuple[Predicate, ...],
                      join_predicates: tuple[JoinPredicate, ...],
                      query_name: str = "") -> float:
        """Estimated output cardinality of a sub-join.

        Parameters
        ----------
        relations:
            Relations participating in the sub-join.
        filters:
            Single-relation predicates applicable within the sub-join.
        join_predicates:
            Equi-join predicates internal to the sub-join.
        query_name:
            Name of the enclosing query (used by deterministic noise /
            caching layers).
        """
        raise NotImplementedError

    def subset_estimator(self, masks: RelationMasks) -> Callable[[int], float]:
        """``estimate_rows`` of any relation subset of one query, by bitmask.

        The returned callable is meant to live for one ``plan()`` call: it
        may cache whatever statistics-derived factors it likes, because the
        statistics cannot change under a single planning pass.
        """
        def rows(mask: int) -> float:
            return self.estimate_rows(*masks.subset(mask), masks.query_name)
        return rows

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def column_stats(self, relation: RelationRef, ref: ColumnRef) -> ColumnStats:
        """Statistics of the column ``ref`` as stored in ``relation``."""
        stats = self.database.stats(relation.table_name)
        return stats.column_or_default(relation.storage_name(ref),
                                       dtype=DataType.INT)

    def relation_rows(self, relation: RelationRef) -> float:
        """Raw row count of a relation."""
        return float(max(self.database.stats(relation.table_name).num_rows, 0))


class DefaultCardinalityEstimator(CardinalityEstimator):
    """PostgreSQL-style estimator: statistics + independence assumption."""

    def estimate_rows(self, relations, filters, join_predicates, query_name="") -> float:
        rows = 1.0
        for relation in relations:
            rows *= self.scan_rows(relation, self._filters_for(relation, filters))
        for pred in join_predicates:
            rows *= self.join_selectivity(pred, relations)
        return max(rows, MIN_ROWS)

    def subset_estimator(self, masks: RelationMasks) -> Callable[[int], float]:
        if type(self).estimate_rows is not DefaultCardinalityEstimator.estimate_rows:
            # A subclass changed what a sub-join estimate is; honour it.
            return super().subset_estimator(masks)
        # Each factor below is the value estimate_rows would recompute for
        # every subset containing it, and they are multiplied in its order
        # (relations, then join predicates), so the product is bit-identical.
        scans = [(1 << i, self.scan_rows(relation, filters))
                 for i, (relation, filters)
                 in enumerate(zip(masks.relations, masks.relation_filters))]
        joins = [(pair, self.join_selectivity(pred, masks.relations))
                 for pair, pred in masks.joins]

        def rows(mask: int) -> float:
            rows = 1.0
            for bit, scan_rows in scans:
                if mask & bit:
                    rows *= scan_rows
            for pair, selectivity in joins:
                if mask & pair == pair:
                    rows *= selectivity
            return max(rows, MIN_ROWS)
        return rows

    # ------------------------------------------------------------------
    # Base relation estimation
    # ------------------------------------------------------------------
    def scan_rows(self, relation: RelationRef,
                  filters: tuple[Predicate, ...]) -> float:
        """Estimated rows surviving the filters on a single relation."""
        rows = self.relation_rows(relation)
        if rows == 0:
            return MIN_ROWS
        selectivity = 1.0
        for pred in filters:
            selectivity *= self.filter_selectivity(relation, pred)
        return max(rows * selectivity, MIN_ROWS)

    def filter_selectivity(self, relation: RelationRef, pred: Predicate) -> float:
        """Selectivity of one single-relation predicate."""
        if isinstance(pred, OrPredicate):
            # Disjunction: 1 - prod(1 - s_i), capped at 1.
            miss = 1.0
            for child in pred.children:
                miss *= 1.0 - self.filter_selectivity(relation, child)
            return min(max(1.0 - miss, 0.0), 1.0)
        if isinstance(pred, Comparison):
            return self._comparison_selectivity(relation, pred)
        if isinstance(pred, Between):
            stats = self.column_stats(relation, pred.column)
            return stats.range_selectivity(low=pred.low, high=pred.high)
        if isinstance(pred, InList):
            stats = self.column_stats(relation, pred.column)
            sel = sum(stats.equality_selectivity(v) for v in pred.values)
            return min(sel, 1.0)
        if isinstance(pred, IsNotNull):
            stats = self.column_stats(relation, pred.column)
            return 1.0 - stats.null_fraction
        if isinstance(pred, StringContains):
            return LIKE_SELECTIVITY
        if isinstance(pred, StringPrefix):
            return PREFIX_SELECTIVITY
        return DEFAULT_EQ_SELECTIVITY

    def _comparison_selectivity(self, relation: RelationRef, pred: Comparison) -> float:
        stats = self.column_stats(relation, pred.column)
        if pred.op == "=":
            return stats.equality_selectivity(pred.value)
        if pred.op == "!=":
            return max(1.0 - stats.equality_selectivity(pred.value), 0.0)
        if pred.op in ("<", "<="):
            return stats.range_selectivity(low=None, high=pred.value)
        return stats.range_selectivity(low=pred.value, high=None)

    # ------------------------------------------------------------------
    # Join estimation
    # ------------------------------------------------------------------
    def join_selectivity(self, pred: JoinPredicate,
                         relations: tuple[RelationRef, ...]) -> float:
        """Selectivity of an equi-join predicate: ``1 / max(ndv_l, ndv_r)``."""
        left_rel = _relation_covering(relations, pred.left.alias)
        right_rel = _relation_covering(relations, pred.right.alias)
        left_stats = self.column_stats(left_rel, pred.left)
        right_stats = self.column_stats(right_rel, pred.right)
        ndv = max(left_stats.effective_ndv(), right_stats.effective_ndv(), 1)
        return 1.0 / ndv

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _filters_for(relation: RelationRef,
                     filters: tuple[Predicate, ...]) -> tuple[Predicate, ...]:
        return tuple(
            pred for pred in filters
            if all(alias in relation.covered_aliases for alias in pred.aliases()))


def _relation_covering(relations: tuple[RelationRef, ...], alias: str) -> RelationRef:
    """Find the relation providing ``alias`` among ``relations``."""
    for relation in relations:
        if relation.covers(alias):
            return relation
    raise KeyError(f"no relation covering alias {alias!r}")
