"""Join-order enumeration.

The enumerator performs the classic dynamic programming over relation
subsets (DPsub style) used by System R descendants, limited to a
configurable relation count, and falls back to greedy operator ordering (GOO)
for wider queries.  For every join it considers hash join, index nested-loop
join (when the inner side is a single indexed base relation) and plain
nested-loop join -- the three methods the executor has -- and keeps the
cheapest alternative.

The enumerator is deliberately driven *only* by the injected cardinality
estimator: feeding it the default estimator reproduces PostgreSQL's
behaviour (including its mistakes), feeding it the oracle produces the
"Optimal" baseline, and feeding it a noisy estimator produces the robustness
study of Figure 10.

The optimizer is re-invoked at every re-optimization point, so one ``plan()``
call is kept cheap: relation subsets are int bitmasks (bit ``i`` is
``query.relations[i]``), everything that depends only on the query is
derived once per call (:class:`_JoinSearch`), and everything that depends
only on the relation count -- the DP's masks and their ordered splits -- once
per process (:func:`_split_table`).  The DP keeps its solved subsets in a
flat list indexed by mask, an unsolved mask holding an infinitely expensive
sentinel, so a split costs two list reads and one float comparison before it
is skipped -- it is skipped when its inputs alone already cost as much as
the best join found.  Every solved subset carries only numbers (its rows,
cost, neighbours and hash-join terms), a surviving split is scored with a
few float operations on those numbers, and
:class:`~repro.plan.physical.JoinNode` objects are built once, for the
winning tree.  ``tests/reference_enum.py`` keeps the straightforward
formulation; the two must agree on every node and every float (see
ARCHITECTURE.md, "The optimizer").
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.plan.expressions import ColumnRef, JoinPredicate, Predicate
from repro.plan.logical import RelationMasks, RelationRef, SPJQuery
from repro.plan.physical import JoinMethod, JoinNode, PlanNode, ScanNode
from repro.storage.database import Database

#: One way to join two solved subsets:
#: ``(est_cost, left mask, right mask, output rows, method, index column)``.
_Join = tuple[float, int, int, float, JoinMethod, ColumnRef | None]


@dataclass(frozen=True)
class EnumeratorConfig:
    """Knobs controlling the plan search."""

    dp_relation_limit: int = 8
    enable_index_nl: bool = True
    enable_nl: bool = True
    #: Multiplier applied to estimated cardinalities when evaluating plan
    #: robustness (used by the FS baseline); 1.0 disables the penalty.
    robustness_blowup: float = 1.0
    #: Weight of the blown-up cost in the robust objective (0 = pure cost).
    robustness_weight: float = 0.0


#: What joins above a solved subset are scored from:
#: ``(est_rows, est_cost, neighbours, hash build term, hash probe term)``.
#: ``neighbours`` is the mask of every relation that shares a join predicate
#: with one inside the subset (members of the subset may be in it too), so
#: ``neighbours & other`` tells whether a disjoint subset ``other`` connects.
#: (A plain tuple: the scoring loop unpacks two of these per split.)
_Solved = tuple[float, float, int, float, float]

_INF = float("inf")

#: What a mask the DP has not solved reads as: infinitely expensive and
#: connected to nothing.  A split with such a side has an infinite
#: ``child_cost``, so the skip rule drops it, and where nothing is skipped
#: (the robust objective) its candidates score infinite or NaN, which is
#: never strictly lower than the incumbent.
_UNSOLVED: _Solved = (_INF, _INF, 0, _INF, _INF)

#: Ordered splits ``((left mask, right mask), ...)`` of the same mask.
_Splits = tuple[tuple[int, int], ...]

#: An indexed inner relation: ``(cost of one probe, [(partner bit, indexed
#: column), ...])``.
_Indexed = tuple[float, list[tuple[int, ColumnRef]]]


class _JoinSearch:
    """Working state of one ``plan()`` call: what is derived once from the
    query, and the solution of every subset solved so far."""

    def __init__(self, masks: RelationMasks, estimate: Callable[[int], float],
                 predicate_table: tuple[tuple[int, tuple[JoinPredicate, ...]], ...],
                 flat: bool):
        self.masks = masks
        self._estimate = estimate
        self._estimates: dict[int, float] = {}
        #: ``(pair mask, predicates)`` rows; a join's predicates are the
        #: rows whose pair has one relation on each side, in table order.
        self.predicate_table = predicate_table
        # Both tables below are indexed by mask: lists of 2**n entries when
        # ``flat`` (the DP), dicts for the greedy search, whose width has no
        # bound.
        #: mask -> solution; ``_UNSOLVED`` (list) or absent (dict) until
        #: the mask is solved.
        self.solved: list[_Solved] | dict[int, _Solved]
        #: Relations an INDEX_NL join may probe: relation bit -> ``(cost of
        #: one probe into the stored table, [(partner bit, indexed column of
        #: the relation), ...] in predicate-table order)``; ``None`` for every
        #: other mask.
        self.indexed_inner: list[_Indexed | None] | dict[int, _Indexed | None]
        if flat:
            size = 1 << len(masks.relations)
            self.solved = [_UNSOLVED] * size
            self.indexed_inner = [None] * size
        else:
            self.solved = {}
            self.indexed_inner = defaultdict(lambda: None)
        #: relation bit -> its scan, and mask of two or more relations -> the
        #: join that solved it; :meth:`node` turns these into the plan.
        self.scans: dict[int, ScanNode] = {}
        self.choice: dict[int, _Join] = {}

    def estimate(self, mask: int) -> float:
        """Estimated rows of the sub-join over ``mask`` (asked once per mask)."""
        rows = self._estimates.get(mask)
        if rows is None:
            rows = self._estimates[mask] = self._estimate(mask)
        return rows

    def node(self, mask: int) -> PlanNode:
        """Build the plan chosen for ``mask``: ``JoinNode``s and their
        predicates are made here, for the winning tree only."""
        scan = self.scans.get(mask)
        if scan is not None:
            return scan
        est_cost, left, right, out_rows, method, index_column = self.choice[mask]
        return JoinNode(
            left=self.node(left), right=self.node(right),
            predicates=self.predicates_between(left, right),
            method=method, index_column=index_column,
            est_rows=out_rows, est_cost=est_cost)

    def predicates_between(self, left: int, right: int) -> tuple[JoinPredicate, ...]:
        """Join predicates connecting two disjoint masks."""
        return tuple(pred for pair, preds in self.predicate_table
                     if pair & left and pair & right for pred in preds)


class JoinEnumerator:
    """Builds the cheapest physical join tree for an SPJ query."""

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
        num_relations = len(query.relations)
        use_dp = num_relations <= self.config.dp_relation_limit
        search = self._start_search(query, group_by_pair=use_dp)
        if num_relations == 1:
            return search.node(1)
        if use_dp:
            return self._dynamic_programming(search)
        return self._greedy(search)

    def _start_search(self, query: SPJQuery, group_by_pair: bool) -> _JoinSearch:
        """Derive the per-query tables and solve the single-relation masks.

        ``group_by_pair`` fixes the order in which a join lists its
        predicates (it shows in EXPLAIN output and decides which indexed
        column an INDEX_NL join probes): the DP groups them by relation pair,
        pairs in order of first appearance in ``query.join_predicates``; the
        greedy search keeps plain ``query.join_predicates`` order.
        """
        masks = RelationMasks.of(query)
        if group_by_pair:
            by_pair: dict[int, list[JoinPredicate]] = {}
            for pair, pred in masks.joins:
                by_pair.setdefault(pair, []).append(pred)
            predicate_table = tuple((pair, tuple(preds))
                                    for pair, preds in by_pair.items())
        else:
            predicate_table = tuple((pair, (pred,)) for pair, pred in masks.joins)
        search = _JoinSearch(masks, self.estimator.subset_estimator(masks),
                             predicate_table, flat=group_by_pair)

        relations = masks.relations
        neighbours = dict.fromkeys((1 << i for i in range(len(relations))), 0)
        # relation bit -> [(partner bit, indexed column), ...]: each side of
        # each predicate whose column is indexed in its base relation.
        probes: dict[int, list[tuple[int, ColumnRef]]] = defaultdict(list)
        index_nl = self.config.enable_index_nl
        has_index = self.database.has_index
        for pair, preds in predicate_table:
            low = pair & -pair
            neighbours[low] |= pair
            neighbours[pair ^ low] |= pair
            if index_nl:
                for pred in preds:
                    for side in (pred.left, pred.right):
                        bit = masks.bits[side.alias]
                        owner = relations[bit.bit_length() - 1]
                        if not owner.is_temp and has_index(owner.table_name,
                                                           side.column):
                            probes[bit].append((pair ^ bit, side))
        for i, (relation, filters) in enumerate(zip(relations,
                                                    masks.relation_filters)):
            bit = 1 << i
            table_rows = self.estimator.relation_rows(relation)
            node = self._scan_node(relation, filters, search.estimate(bit),
                                   table_rows)
            search.scans[bit] = node
            search.solved[bit] = self._solution(node.est_rows, node.est_cost,
                                                neighbours[bit])
            if bit in probes:
                search.indexed_inner[bit] = (
                    self.cost_model.index_probe_cost(table_rows), probes[bit])
        return search

    def _solution(self, rows: float, cost: float, neighbours: int) -> _Solved:
        """The numbers a solved subset is joined from; the hash terms are
        :meth:`CostModel.join_cost`'s HASH ``build`` and ``probe``, with the
        same operations."""
        p = self.cost_model.params
        return (rows, cost, neighbours,
                rows * p.cpu_tuple_cost * p.hash_build_factor,
                rows * (p.cpu_tuple_cost + p.cpu_operator_cost))

    # ------------------------------------------------------------------
    # Leaf plans
    # ------------------------------------------------------------------
    def _scan_node(self, relation: RelationRef, filters: tuple[Predicate, ...],
                   rows: float, table_rows: float) -> ScanNode:
        cost = self.cost_model.scan_cost(
            table_rows, rows, len(filters),
            code_space_filters=self._code_space_filters(relation, filters))
        return ScanNode(relation=relation, filters=filters,
                        est_rows=rows, est_cost=cost)

    def _code_space_filters(self, relation: RelationRef,
                            filters: tuple[Predicate, ...]) -> int:
        """Filters the scan will evaluate in dictionary code space.

        A filter qualifies when every column it references is stored
        dictionary-encoded in the base table, so the executor's predicate
        translation turns it into an int compare.  Temporaries are encoded
        too, but a temp scan has no filters: ``SPJQuery.substitute`` drops
        every filter the temporary already applied.
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
    def _dynamic_programming(self, search: _JoinSearch) -> PlanNode:
        num_relations = len(search.masks.relations)
        full_mask = (1 << num_relations) - 1
        estimate = search.estimate
        for mask, splits in _split_table(num_relations):
            join = self._cheapest_join(search, ((estimate(mask), splits),))
            if join is not None:
                self._add_join(search, join)
        solved = search.solved
        if solved[full_mask] is _UNSOLVED:
            # The join graph is disconnected and cross products were not
            # allowed inside the DP (``enable_nl`` off): cross-join the
            # largest solved masks until everything is covered, larger
            # masks first and, among equally large ones, lower first.
            largest_first = [mask for mask in sorted(
                range(1, full_mask), key=int.bit_count, reverse=True)
                if solved[mask] is not _UNSOLVED]
            covered = 0
            for mask in largest_first:
                if covered & mask:
                    continue
                if covered:
                    self._add_join(search, self._cross_product(search, covered, mask))
                covered |= mask
                if covered == full_mask:
                    break
        return search.node(full_mask)

    # ------------------------------------------------------------------
    # Greedy operator ordering for wide queries
    # ------------------------------------------------------------------
    def _greedy(self, search: _JoinSearch) -> PlanNode:
        components = [1 << i for i in range(len(search.masks.relations))]
        while len(components) > 1:
            join = self._cheapest_join(
                search, _connected_pairs(search, components))
            if join is None:
                # No connected pair remains: cross product the two smallest.
                components.sort(key=lambda mask: search.solved[mask][0])
                join = self._cross_product(search, components[0], components[1])
            _, left, right, *_ = join
            self._add_join(search, join)
            components = [c for c in components if c != left and c != right]
            components.append(left | right)
        return search.node(components[0])

    # ------------------------------------------------------------------
    # Join scoring (shared by both searches)
    # ------------------------------------------------------------------
    def _cheapest_join(self, search: _JoinSearch,
                       groups: Iterable[tuple[float, _Splits]]) -> _Join | None:
        """Best-scoring join over groups of ``(left mask, right mask)``
        splits, each group ``(output rows, splits)``.

        The DP passes one group, the splits of one mask; the greedy search
        one group per connected pair of components.  A connected split
        scores HASH, then INDEX_NL when its inner is indexed; a split with
        no predicate between its sides scores NL only.  Candidates are
        compared in split order and, within a split, in that order; a later
        candidate replaces the incumbent only when its score is strictly
        lower.  This loop runs once per split of every subset, so it works
        on floats only, with :meth:`CostModel.join_cost`'s operations in the
        same order.  With ``robustness_weight`` 0 a split is skipped, before
        its solutions are unpacked, when none of its candidates can score
        strictly lower than the incumbent: each costs ``child_cost``
        (INDEX_NL: ``child_cost`` minus the replaced inner scan) plus
        ``emit`` with non-negative terms added to it, and float addition is
        monotone in each operand, so no candidate costs less than
        ``child_cost + emit``.  A side the DP left unsolved (``_UNSOLVED``)
        makes ``child_cost`` infinite, so the split is skipped too, or under
        the robust objective, which skips nothing, scores infinite or NaN
        and never wins.
        """
        config = self.config
        p = self.cost_model.params
        tuple_cost, operator_cost = p.cpu_tuple_cost, p.cpu_operator_cost
        enable_nl = config.enable_nl
        solved, indexed_inner = search.solved, search.indexed_inner
        robust = config.robustness_weight > 0.0
        best: _Join | None = None
        best_score = _INF
        for out_rows, splits in groups:
            emit = out_rows * tuple_cost
            for left, right in splits:
                left_solved = solved[left]
                right_solved = solved[right]
                right_cost = right_solved[1]
                child_cost = left_solved[1] + right_cost
                indexed = indexed_inner[right]
                if (child_cost + emit >= best_score and not robust
                        and (indexed is None
                             or (child_cost - right_cost) + emit >= best_score)):
                    continue
                left_rows, left_cost, neighbours, _, left_probe = left_solved
                right_rows, _, _, right_build, _ = right_solved
                if neighbours & right:
                    est_cost = child_cost + ((right_build + left_probe) + emit)
                    score = est_cost if not robust else self._plan_score(
                        JoinMethod.HASH, est_cost, left_rows, right_rows,
                        out_rows, left_cost, right_cost)
                    if score < best_score:
                        best_score = score
                        best = (est_cost, left, right, out_rows,
                                JoinMethod.HASH, None)
                    if indexed is not None:
                        per_probe, probes = indexed
                        for partner, index_column in probes:
                            if not partner & left:
                                continue
                            # The inner scan is replaced by index probes into
                            # the whole stored table.
                            est_cost = (child_cost - right_cost) + (
                                left_rows * per_probe + emit)
                            score = est_cost if not robust else self._plan_score(
                                JoinMethod.INDEX_NL, est_cost, left_rows, right_rows,
                                out_rows, left_cost, right_cost)
                            if score < best_score:
                                best_score = score
                                best = (est_cost, left, right, out_rows,
                                        JoinMethod.INDEX_NL, index_column)
                            break
                elif enable_nl:
                    # The cross product the DP is allowed for unconnected
                    # splits.
                    est_cost = child_cost + (
                        left_rows * right_rows * operator_cost + emit)
                    score = est_cost if not robust else self._plan_score(
                        JoinMethod.NL, est_cost, left_rows, right_rows,
                        out_rows, left_cost, right_cost)
                    if score < best_score:
                        best_score = score
                        best = (est_cost, left, right, out_rows, JoinMethod.NL, None)
        return best

    def _plan_score(self, method: JoinMethod, est_cost: float,
                    left_rows: float, right_rows: float, out_rows: float,
                    left_cost: float, right_cost: float) -> float:
        """Robust objective used to compare candidates (the FS baseline).

        Mixes the estimated cost with the cost the join would have if every
        cardinality were ``robustness_blowup`` times larger; with
        ``robustness_weight`` 0 candidates compare on ``est_cost`` alone and
        this is not called.
        """
        blowup = self.config.robustness_blowup
        inflated = self.cost_model.join_cost(
            method,
            left_rows * blowup,
            right_rows * blowup,
            out_rows * blowup,
            inner_indexed=method is JoinMethod.INDEX_NL,
        ) + left_cost + right_cost
        w = self.config.robustness_weight
        return (1.0 - w) * est_cost + w * inflated

    def _cross_product(self, search: _JoinSearch, left: int, right: int) -> _Join:
        """The NL cross product of two solved masks, outside any scoring."""
        left_rows, left_cost, *_ = search.solved[left]
        right_rows, right_cost, *_ = search.solved[right]
        out_rows = max(left_rows * right_rows, 1.0)
        est_cost = (left_cost + right_cost
                    + self.cost_model.join_cost(JoinMethod.NL, left_rows,
                                                right_rows, out_rows))
        return est_cost, left, right, out_rows, JoinMethod.NL, None

    def _add_join(self, search: _JoinSearch, join: _Join) -> None:
        """Record ``join`` as the solution of the mask it covers."""
        est_cost, left, right, out_rows, _, _ = join
        mask = left | right
        search.choice[mask] = join
        search.solved[mask] = self._solution(
            out_rows, est_cost, search.solved[left][2] | search.solved[right][2])


@functools.lru_cache(maxsize=None)
def _split_table(num_relations: int) -> tuple[tuple[int, _Splits], ...]:
    """The DP's steps over ``num_relations`` relations, built once per width.

    Every mask of two or more relations, in order of population count and
    then value, with every *ordered* split ``(sub, mask ^ sub)`` of it into
    two non-empty halves in descending ``sub`` order.  Both orientations
    are listed because the sides are not symmetric (the right one builds
    the hash table or is probed through its index).  A mask is solved only
    after every smaller one, so both halves of a split are final when it
    is scored.
    """
    table = []
    for mask in sorted(range(1, 1 << num_relations), key=int.bit_count):
        if not mask & (mask - 1):
            continue
        splits = []
        sub = (mask - 1) & mask
        while sub:
            splits.append((sub, mask ^ sub))
            sub = (sub - 1) & mask
        table.append((mask, tuple(splits)))
    return tuple(table)


def _connected_pairs(search: _JoinSearch, components: list[int],
                     ) -> Iterator[tuple[float, _Splits]]:
    """Every ordered pair of components joined by at least one predicate, as
    a one-split group with its output rows."""
    for left in components:
        neighbours = search.solved[left][2]
        for right in components:
            if right != left and neighbours & right:
                yield search.estimate(left | right), ((left, right),)
