"""True-cardinality oracle and the "Optimal" estimator built on it.

The paper's *Optimal* baseline feeds the optimizer "the accurate cardinality
of every possible intermediate result".  The oracle reproduces that by
actually executing the requested sub-join against the in-memory tables
(greedy hash joins over the filtered inputs) and caching the result.  It also
backs the robustness study of Figure 10 (where controlled noise is applied to
*true* cardinalities) and the simulated learned estimators.

Executing every sub-join the DP enumerator asks about is expensive, so the
oracle memoizes per ``(query, relation-subset)`` and re-uses materialized
sub-results where possible.  The oracle's own cost is *not* charged to the
measured execution time -- it is an idealized baseline, exactly as in the
paper.
"""

from __future__ import annotations

import numpy as np

from repro.executor.joins import combine_key_pair, join_result_size, multi_key_equi_join
from repro.optimizer.cardinality import (
    CardinalityEstimator,
    DefaultCardinalityEstimator,
    MIN_ROWS,
)
from repro.plan.expressions import ColumnRef, JoinPredicate, Predicate
from repro.plan.logical import RelationRef
from repro.storage.database import Database

#: Materialized sub-results larger than this are not cached (count only).
MATERIALIZE_CACHE_CAP = 2_000_000

#: Hard cap on materialized intermediate size inside the oracle; beyond this
#: the oracle samples and scales (documented approximation).
ROW_CAP = 2_000_000


class _Component:
    """A partially joined component inside the oracle's greedy execution.

    ``num_rows`` is the (estimated-exact) cardinality of the component;
    ``sample_rows`` is the number of rows actually materialized in
    ``columns``.  The two only differ when a pathological sub-join exceeded
    the oracle's materialization cap and had to be sampled.
    """

    __slots__ = ("aliases", "columns", "num_rows", "sample_rows")

    def __init__(self, aliases: frozenset[str],
                 columns: dict[ColumnRef, np.ndarray], num_rows: int,
                 sample_rows: int | None = None):
        self.aliases = aliases
        self.columns = columns
        self.num_rows = num_rows
        self.sample_rows = num_rows if sample_rows is None else sample_rows


class TrueCardinalityOracle:
    """Computes exact output cardinalities of sub-joins by executing them.

    When given an engine-level
    :class:`~repro.executor.subplan_cache.SubplanCache`, the oracle first
    checks whether the executor already produced the requested sub-join
    somewhere (any join order, any policy): a cached chunk's row count *is*
    the true cardinality, so the probe costs nothing.
    """

    def __init__(self, database: Database, subplan_cache=None):
        self.database = database
        self.subplan_cache = subplan_cache
        if subplan_cache is not None:
            subplan_cache.bind(database)
        self._count_cache: dict[tuple[str, frozenset[str]], float] = {}
        self._mat_cache: dict[tuple[str, frozenset[str]], _Component] = {}
        #: All join predicates ever seen per query; used to over-approximate
        #: which columns to keep in cached components so that larger subsets
        #: can be built incrementally from smaller cached ones.
        self._known_preds: dict[str, set[JoinPredicate]] = {}
        self.executions = 0
        self.subplan_hits = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def true_rows(self, relations: tuple[RelationRef, ...],
                  filters: tuple[Predicate, ...],
                  join_predicates: tuple[JoinPredicate, ...],
                  query_name: str = "") -> float:
        """Exact number of rows produced by the sub-join."""
        key = (query_name, frozenset(r.alias for r in relations))
        cached = self._count_cache.get(key)
        if cached is not None:
            return cached
        self._known_preds.setdefault(query_name, set()).update(join_predicates)
        if self.subplan_cache is not None and relations:
            from repro.executor.subplan_cache import subplan_signature

            try:
                signature = subplan_signature(relations, filters, join_predicates)
            except TypeError:  # unhashable filter literal: no probe possible
                signature = None
            rows = (self.subplan_cache.lookup_rows(signature)
                    if signature is not None else None)
            if rows is not None:
                # Answering from the executor's cache skips the oracle's own
                # materialization, so _mat_cache gets no component for this
                # subset; a later superset probe that misses the subplan
                # cache falls back to a full greedy join instead of a
                # one-join extension.  Supersets of executed subtrees are
                # normally in the subplan cache too (the executor stores
                # every node bottom-up), so the trade is worth it.
                self.subplan_hits += 1
                result = max(float(max(rows, 0)), MIN_ROWS)
                self._count_cache[key] = result
                return result
        component = (self._extend_cached(relations, filters, join_predicates, query_name)
                     or self._execute(relations, filters, join_predicates, query_name))
        rows = float(max(component.num_rows, 0))
        # Cache exactly what is returned, so repeat probes of the same
        # subset never flip between clamped and unclamped values.
        result = max(rows, MIN_ROWS) if relations else rows
        self._count_cache[key] = result
        if component.sample_rows <= MATERIALIZE_CACHE_CAP and component.columns:
            self._mat_cache[key] = component
        return result

    def reset(self) -> None:
        """Drop all cached results (call between queries to bound memory)."""
        self._count_cache.clear()
        self._mat_cache.clear()
        self._known_preds.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _extend_cached(self, relations, filters, join_predicates,
                       query_name) -> _Component | None:
        """Build the requested sub-join from a cached sub-join one join cheaper.

        The DP enumerator asks for subsets in increasing size, so the subset
        minus one relation has usually been computed (and cached) already;
        extending it by a single join is far cheaper than re-joining from
        scratch.
        """
        if len(relations) < 3:
            return None
        aliases = frozenset(r.alias for r in relations)
        for drop in relations:
            if len(drop.covered_aliases) != 1:
                continue
            rest_key = (query_name, aliases - drop.covered_aliases)
            cached = self._mat_cache.get(rest_key)
            if cached is None:
                continue
            connecting = [
                pred for pred in join_predicates
                if (pred.left.alias in drop.covered_aliases
                    and pred.right.alias in cached.aliases)
                or (pred.right.alias in drop.covered_aliases
                    and pred.left.alias in cached.aliases)
            ]
            if not connecting:
                continue
            # Make sure the cached component actually carries the join columns.
            missing = any(
                (pred.left if pred.left.alias in cached.aliases else pred.right)
                not in cached.columns
                for pred in connecting)
            if missing:
                continue
            needed = self._needed_columns_for_query(relations, query_name)
            base = self._base_component(drop, filters,
                                        needed.get(drop.alias, set()))
            self.executions += 1
            return self._join(cached, base, [], list(connecting))
        return None

    def _needed_columns_for_query(self, relations, query_name) -> dict[str, set[ColumnRef]]:
        preds = self._known_preds.get(query_name, set())
        return self._needed_columns(relations, tuple(preds))

    def _execute(self, relations, filters, join_predicates, query_name) -> _Component:
        self.executions += 1
        needed_columns = self._needed_columns_for_query(relations, query_name)
        components = [
            self._base_component(rel, filters, needed_columns.get(rel.alias, set()))
            for rel in relations
        ]
        remaining = list(join_predicates)
        # Greedily apply join predicates, always choosing the pair of
        # components with the smallest size product to delay blow-ups.
        while remaining:
            best = None
            best_size = None
            for pred in remaining:
                left_comp = _component_covering(components, pred.left.alias)
                right_comp = _component_covering(components, pred.right.alias)
                if left_comp is right_comp:
                    continue
                size = left_comp.num_rows * max(right_comp.num_rows, 1)
                if best_size is None or size < best_size:
                    best_size = size
                    best = (pred, left_comp, right_comp)
            if best is None:
                # Every remaining predicate is internal to a component; they
                # were applied when that component was formed.
                break
            pred, left_comp, right_comp = best
            joined = self._join(left_comp, right_comp, components, remaining)
            components = [c for c in components
                          if c is not left_comp and c is not right_comp]
            components.append(joined)
            remaining = [p for p in remaining
                         if _component_covering(components, p.left.alias)
                         is not _component_covering(components, p.right.alias)]
        # Any leftover components are combined by Cartesian product (counts
        # multiply; the materialized columns of the largest are kept).
        total_rows = 1
        for comp in components:
            total_rows *= comp.num_rows
        merged_aliases = frozenset().union(*(c.aliases for c in components))
        main = max(components, key=lambda c: c.num_rows)
        columns = main.columns if len(components) == 1 else {}
        return _Component(merged_aliases, columns, total_rows)

    def _base_component(self, relation: RelationRef, filters,
                        needed: set[ColumnRef]) -> _Component:
        table = self.database.table(relation.table_name)
        relation_filters = tuple(
            pred for pred in filters
            if all(alias in relation.covered_aliases for alias in pred.aliases()))

        def resolve(ref: ColumnRef) -> np.ndarray:
            # column_values decodes dictionary-encoded storage: the oracle
            # evaluates value-space predicates over real values.
            if relation.is_temp:
                return table.column_values(ref.qualified)
            return table.column_values(ref.column)

        if not relation_filters:
            # Components never write their columns, so an unfiltered
            # relation can share the table's arrays.
            return _Component(relation.covered_aliases,
                              {ref: resolve(ref) for ref in needed},
                              table.num_rows)
        mask = relation_filters[0].evaluate(resolve)
        for pred in relation_filters[1:]:
            mask = mask & pred.evaluate(resolve)
        indices = np.nonzero(mask)[0]
        columns = {ref: resolve(ref)[indices] for ref in needed}
        return _Component(relation.covered_aliases, columns, len(indices))

    def _join(self, left: _Component, right: _Component, components, remaining) -> _Component:
        # Collect every remaining predicate connecting exactly these two
        # components so multi-key joins are applied in one shot.
        preds = [
            p for p in remaining
            if ((p.left.alias in left.aliases and p.right.alias in right.aliases)
                or (p.left.alias in right.aliases and p.right.alias in left.aliases))
        ]
        left_keys, right_keys = [], []
        for pred in preds:
            if pred.left.alias in left.aliases:
                left_keys.append(left.columns[pred.left])
                right_keys.append(right.columns[pred.right])
            else:
                left_keys.append(left.columns[pred.right])
                right_keys.append(right.columns[pred.left])
        # If either input had to be sampled earlier, the sample-level match
        # count must be scaled back up to the true cardinality.
        left_factor = left.num_rows / max(left.sample_rows, 1)
        right_factor = right.num_rows / max(right.sample_rows, 1)

        # Compute the sample-level match count without materializing; if it
        # would exceed the cap, thin the left input and remember the stride.
        # The component's cardinality stays (approximately) exact while its
        # materialized sample remains bounded -- this only ever happens for
        # pathological sub-joins no sensible plan would execute.
        if len(left_keys) == 1:
            sample_left, sample_right = left_keys[0], right_keys[0]
        else:
            sample_left, sample_right = combine_key_pair(left_keys, right_keys)
        sample_matches = join_result_size(sample_left, sample_right)
        stride = 1
        if sample_matches > ROW_CAP:
            stride = int(np.ceil(sample_matches / ROW_CAP))
            left_keys = [arr[::stride] for arr in left_keys]
            left_columns_sampled = {ref: arr[::stride] for ref, arr in left.columns.items()}
        else:
            left_columns_sampled = left.columns

        left_idx, right_idx = multi_key_equi_join(left_keys, right_keys)
        columns: dict[ColumnRef, np.ndarray] = {}
        for ref, arr in left_columns_sampled.items():
            columns[ref] = arr[left_idx]
        for ref, arr in right.columns.items():
            columns[ref] = arr[right_idx]
        true_rows = int(round(sample_matches * left_factor * right_factor))
        return _Component(left.aliases | right.aliases, columns, true_rows,
                          sample_rows=len(left_idx))

    @staticmethod
    def _needed_columns(relations, join_predicates) -> dict[str, set[ColumnRef]]:
        needed: dict[str, set[ColumnRef]] = {}
        by_alias = {}
        for rel in relations:
            for alias in rel.covered_aliases:
                by_alias[alias] = rel
        for pred in join_predicates:
            for ref in (pred.left, pred.right):
                rel = by_alias.get(ref.alias)
                if rel is not None:
                    needed.setdefault(rel.alias, set()).add(ref)
        return needed


def _component_covering(components: list[_Component], alias: str) -> _Component:
    for comp in components:
        if alias in comp.aliases:
            return comp
    raise KeyError(f"no component covering alias {alias!r}")


class OracleCardinalityEstimator(CardinalityEstimator):
    """Estimator returning *true* cardinalities (the "Optimal" baseline)."""

    def __init__(self, database: Database, oracle: TrueCardinalityOracle | None = None):
        super().__init__(database)
        self.oracle = oracle or TrueCardinalityOracle(database)
        # Single-relation scans fall back to the exact filtered count as well,
        # which the oracle computes trivially.
        self._fallback = DefaultCardinalityEstimator(database)

    def estimate_rows(self, relations, filters, join_predicates, query_name="") -> float:
        if not relations:
            return MIN_ROWS
        return max(self.oracle.true_rows(relations, filters, join_predicates,
                                         query_name), MIN_ROWS)
