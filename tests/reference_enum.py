"""The straightforward join enumerator, kept as the test oracle.

This is the formulation ``repro.optimizer.join_enum`` had before it was
rewritten around bitmask tables: every split of every relation subset
re-derives the connecting predicates by walking the pair dictionary, builds a
:class:`~repro.plan.physical.JoinNode` for every candidate method, and asks
the estimator from scratch (``_filters_within`` / ``_joins_within``) for
every subset.  It is slow and obviously right, which is the point:
``tests/test_optimizer.py`` plans the same queries with both and requires the
trees to agree node by node -- method, children, predicate order, index
column, and ``==`` on every ``est_rows`` / ``est_cost``.

It shares only the public surface with the production enumerator:
:class:`~repro.optimizer.join_enum.EnumeratorConfig`,
``CardinalityEstimator.estimate_rows`` / ``relation_rows`` and
``CostModel.scan_cost`` / ``join_cost``.
"""

from __future__ import annotations

from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.join_enum import EnumeratorConfig
from repro.plan.expressions import JoinPredicate, Predicate
from repro.plan.logical import RelationRef, SPJQuery
from repro.plan.physical import JoinMethod, JoinNode, PlanNode, ScanNode
from repro.storage.database import Database


class ReferenceJoinEnumerator:
    """Builds the cheapest physical join tree for an SPJ query (slowly)."""

    def __init__(self, database: Database, estimator: CardinalityEstimator,
                 cost_model: CostModel, config: EnumeratorConfig | None = None):
        self.database = database
        self.estimator = estimator
        self.cost_model = cost_model
        self.config = config or EnumeratorConfig()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def plan(self, query: SPJQuery) -> PlanNode:
        """Return the root of the cheapest join tree found for ``query``."""
        base_nodes = [self._scan_node(query, rel) for rel in query.relations]
        if len(base_nodes) == 1:
            return base_nodes[0]
        if len(base_nodes) <= self.config.dp_relation_limit:
            return self._dynamic_programming(query, base_nodes)
        return self._greedy(query, base_nodes)

    # ------------------------------------------------------------------
    # Leaf plans
    # ------------------------------------------------------------------
    def _scan_node(self, query: SPJQuery, relation: RelationRef) -> ScanNode:
        filters = query.filters_for(relation)
        rows = self.estimator.estimate_rows((relation,), filters, (), query.name)
        table_rows = self.estimator.relation_rows(relation)
        cost = self.cost_model.scan_cost(
            table_rows, rows, len(filters),
            code_space_filters=self._code_space_filters(relation, filters))
        return ScanNode(relation=relation, filters=filters,
                        est_rows=rows, est_cost=cost)

    def _code_space_filters(self, relation: RelationRef,
                            filters: tuple[Predicate, ...]) -> int:
        """Filters the scan will evaluate in dictionary code space.

        A filter qualifies when every column it references is stored
        dictionary-encoded in the base table (temps are never encoded), so
        the executor's predicate translation turns it into an int compare.
        """
        if not filters or relation.is_temp:
            return 0
        if not self.database.has_table(relation.table_name):
            return 0
        table = self.database.table(relation.table_name)
        if not table.dictionaries:
            return 0
        return sum(
            1 for pred in filters
            if all(table.has_column(ref.column) and table.is_encoded(ref.column)
                   for ref in pred.column_refs()))

    # ------------------------------------------------------------------
    # Dynamic programming over subsets
    # ------------------------------------------------------------------
    def _dynamic_programming(self, query: SPJQuery,
                             base_nodes: list[ScanNode]) -> PlanNode:
        n = len(base_nodes)
        full_mask = (1 << n) - 1
        best: dict[int, PlanNode] = {}
        rows_cache: dict[int, float] = {}
        for i, node in enumerate(base_nodes):
            best[1 << i] = node
            rows_cache[1 << i] = node.est_rows

        # Pre-compute, for every pair of relations, the predicates connecting
        # them, so split connectivity checks are cheap.
        pair_preds = self._pair_predicates(query, base_nodes)

        for mask in sorted(range(1, full_mask + 1), key=_popcount):
            if _popcount(mask) < 2:
                continue
            subset_rows = self._subset_rows(query, base_nodes, mask, rows_cache)
            best_node: PlanNode | None = None
            best_score = float("inf")
            # Every ordered split (sub, other) is considered so that both join
            # orientations (which side builds / is probed via its index) are
            # explored.
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                left = best.get(sub)
                right = best.get(other)
                if left is None or right is None:
                    sub = (sub - 1) & mask
                    continue
                preds = self._predicates_between(pair_preds, sub, other)
                for node in self._join_candidates(left, right, preds, subset_rows):
                    score = self._plan_score(node)
                    if score < best_score:
                        best_score = score
                        best_node = node
                sub = (sub - 1) & mask
            if best_node is not None:
                best[mask] = best_node

        if full_mask in best:
            return best[full_mask]
        # The join graph is disconnected: combine the best plans of its
        # connected components with cross products.
        return self._combine_components(query, base_nodes, best, rows_cache)

    def _subset_rows(self, query: SPJQuery, base_nodes: list[ScanNode],
                     mask: int, cache: dict[int, float]) -> float:
        if mask in cache:
            return cache[mask]
        relations = tuple(base_nodes[i].relation
                          for i in range(len(base_nodes)) if mask & (1 << i))
        filters = _filters_within(query, relations)
        joins = _joins_within(query, relations)
        rows = self.estimator.estimate_rows(relations, filters, joins, query.name)
        cache[mask] = rows
        return rows

    def _combine_components(self, query: SPJQuery, base_nodes: list[ScanNode],
                            best: dict[int, PlanNode],
                            rows_cache: dict[int, float]) -> PlanNode:
        n = len(base_nodes)
        full_mask = (1 << n) - 1
        # Greedily merge the largest solved masks until everything is covered.
        solved = sorted(best, key=_popcount, reverse=True)
        covered = 0
        parts: list[PlanNode] = []
        for mask in solved:
            if covered & mask:
                continue
            parts.append(best[mask])
            covered |= mask
            if covered == full_mask:
                break
        result = parts[0]
        for part in parts[1:]:
            out_rows = max(result.est_rows * part.est_rows, 1.0)
            cost = (result.est_cost + part.est_cost
                    + self.cost_model.join_cost(JoinMethod.NL, result.est_rows,
                                                part.est_rows, out_rows))
            result = JoinNode(left=result, right=part, predicates=(),
                              method=JoinMethod.NL, est_rows=out_rows, est_cost=cost)
        return result

    # ------------------------------------------------------------------
    # Greedy operator ordering for wide queries
    # ------------------------------------------------------------------
    def _greedy(self, query: SPJQuery, base_nodes: list[ScanNode]) -> PlanNode:
        components: list[PlanNode] = list(base_nodes)
        while len(components) > 1:
            best_pair: tuple[int, int] | None = None
            best_node: PlanNode | None = None
            best_score = float("inf")
            for i in range(len(components)):
                for j in range(len(components)):
                    if i == j:
                        continue
                    left, right = components[i], components[j]
                    preds = self._predicates_between_nodes(query, left, right)
                    if not preds:
                        continue
                    out_rows = self._estimate_merged_rows(query, left, right)
                    for node in self._join_candidates(left, right, preds, out_rows):
                        score = self._plan_score(node)
                        if score < best_score:
                            best_score = score
                            best_node = node
                            best_pair = (i, j)
            if best_node is None:
                # No connected pair remains: cross product the two smallest.
                components.sort(key=lambda n: n.est_rows)
                left, right = components[0], components[1]
                out_rows = max(left.est_rows * right.est_rows, 1.0)
                cost = (left.est_cost + right.est_cost
                        + self.cost_model.join_cost(JoinMethod.NL, left.est_rows,
                                                    right.est_rows, out_rows))
                best_node = JoinNode(left=left, right=right, predicates=(),
                                     method=JoinMethod.NL, est_rows=out_rows,
                                     est_cost=cost)
                best_pair = (0, 1)
            i, j = best_pair
            components = [c for k, c in enumerate(components) if k not in (i, j)]
            components.append(best_node)
        return components[0]

    def _estimate_merged_rows(self, query: SPJQuery, left: PlanNode,
                              right: PlanNode) -> float:
        relations = tuple(
            rel for rel in query.relations
            if rel.covered_aliases <= (left.covered_aliases() | right.covered_aliases()))
        filters = _filters_within(query, relations)
        joins = _joins_within(query, relations)
        return self.estimator.estimate_rows(relations, filters, joins, query.name)

    # ------------------------------------------------------------------
    # Join candidate generation
    # ------------------------------------------------------------------
    def _join_candidates(self, left: PlanNode, right: PlanNode,
                         preds: tuple[JoinPredicate, ...],
                         output_rows: float) -> list[JoinNode]:
        candidates: list[JoinNode] = []
        child_cost = left.est_cost + right.est_cost
        if not preds:
            if self.config.enable_nl:
                cost = child_cost + self.cost_model.join_cost(
                    JoinMethod.NL, left.est_rows, right.est_rows, output_rows)
                candidates.append(JoinNode(
                    left=left, right=right, predicates=(), method=JoinMethod.NL,
                    est_rows=output_rows, est_cost=cost))
            return candidates

        cost = child_cost + self.cost_model.join_cost(
            JoinMethod.HASH, left.est_rows, right.est_rows, output_rows)
        candidates.append(JoinNode(
            left=left, right=right, predicates=preds, method=JoinMethod.HASH,
            est_rows=output_rows, est_cost=cost))

        if self.config.enable_index_nl:
            index_column = self._indexed_inner_column(right, preds)
            if index_column is not None:
                inner_rows = self.estimator.relation_rows(right.relation)  # type: ignore[union-attr]
                cost = child_cost - right.est_cost + self.cost_model.join_cost(
                    JoinMethod.INDEX_NL, left.est_rows, inner_rows, output_rows,
                    inner_indexed=True)
                candidates.append(JoinNode(
                    left=left, right=right, predicates=preds,
                    method=JoinMethod.INDEX_NL, index_column=index_column,
                    est_rows=output_rows, est_cost=cost))
        return candidates

    def _indexed_inner_column(self, right: PlanNode,
                              preds: tuple[JoinPredicate, ...]):
        """Return the indexed inner column if an index nested-loop join applies."""
        if not isinstance(right, ScanNode):
            return None
        relation = right.relation
        if relation.is_temp:
            return None
        for pred in preds:
            for side in (pred.left, pred.right):
                if relation.covers(side.alias) and self.database.has_index(
                        relation.table_name, side.column):
                    return side
        return None

    def _plan_score(self, node: JoinNode) -> float:
        """Objective used to compare candidate plans.

        With robustness disabled this is simply the estimated cost; the FS
        baseline mixes in the cost the plan would have if every cardinality
        were ``robustness_blowup`` times larger.
        """
        if self.config.robustness_weight <= 0.0:
            return node.est_cost
        blowup = self.config.robustness_blowup
        inflated = self.cost_model.join_cost(
            node.method,
            node.left.est_rows * blowup,
            node.right.est_rows * blowup,
            node.est_rows * blowup,
            inner_indexed=node.method is JoinMethod.INDEX_NL,
        ) + node.left.est_cost + node.right.est_cost
        w = self.config.robustness_weight
        return (1.0 - w) * node.est_cost + w * inflated

    # ------------------------------------------------------------------
    # Predicate bookkeeping
    # ------------------------------------------------------------------
    def _pair_predicates(self, query: SPJQuery, base_nodes: list[ScanNode]
                         ) -> dict[tuple[int, int], list[JoinPredicate]]:
        index_of: dict[str, int] = {}
        for i, node in enumerate(base_nodes):
            for alias in node.relation.covered_aliases:
                index_of[alias] = i
        pairs: dict[tuple[int, int], list[JoinPredicate]] = {}
        for pred in query.join_predicates:
            i = index_of[pred.left.alias]
            j = index_of[pred.right.alias]
            if i == j:
                continue
            key = (min(i, j), max(i, j))
            pairs.setdefault(key, []).append(pred)
        return pairs

    @staticmethod
    def _predicates_between(pair_preds: dict[tuple[int, int], list[JoinPredicate]],
                            mask_a: int, mask_b: int) -> tuple[JoinPredicate, ...]:
        preds: list[JoinPredicate] = []
        for (i, j), plist in pair_preds.items():
            in_a = bool(mask_a & (1 << i)), bool(mask_a & (1 << j))
            in_b = bool(mask_b & (1 << i)), bool(mask_b & (1 << j))
            if (in_a[0] and in_b[1]) or (in_a[1] and in_b[0]):
                preds.extend(plist)
        return tuple(preds)

    @staticmethod
    def _predicates_between_nodes(query: SPJQuery, left: PlanNode,
                                  right: PlanNode) -> tuple[JoinPredicate, ...]:
        left_aliases = left.covered_aliases()
        right_aliases = right.covered_aliases()
        preds = []
        for pred in query.join_predicates:
            a, b = pred.left.alias, pred.right.alias
            if (a in left_aliases and b in right_aliases) or (
                    b in left_aliases and a in right_aliases):
                preds.append(pred)
        return tuple(preds)


# ----------------------------------------------------------------------
# Module-level helpers
# ----------------------------------------------------------------------
def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _filters_within(query: SPJQuery,
                    relations: tuple[RelationRef, ...]) -> tuple[Predicate, ...]:
    """Filters of ``query`` fully contained in the given relation subset."""
    covered: set[str] = set()
    for rel in relations:
        covered.update(rel.covered_aliases)
    return tuple(
        pred for pred in query.filters
        if all(alias in covered for alias in pred.aliases()))


def _joins_within(query: SPJQuery,
                  relations: tuple[RelationRef, ...]) -> tuple[JoinPredicate, ...]:
    """Join predicates of ``query`` internal to the given relation subset.

    Predicates whose two sides are covered by the *same* relation (e.g. both
    inside one materialized temporary) are excluded: they were already applied
    when the temporary was built.
    """
    preds = []
    for pred in query.join_predicates:
        left_rel = _covering(relations, pred.left.alias)
        right_rel = _covering(relations, pred.right.alias)
        if left_rel is None or right_rel is None:
            continue
        if left_rel is right_rel:
            continue
        preds.append(pred)
    return tuple(preds)


def _covering(relations: tuple[RelationRef, ...], alias: str) -> RelationRef | None:
    for rel in relations:
        if rel.covers(alias):
            return rel
    return None
