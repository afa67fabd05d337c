"""True-cardinality oracle and the "Optimal" estimator built on it.

The paper's *Optimal* baseline feeds the optimizer "the accurate cardinality
of every possible intermediate result"; Figure 10's ``use_oracle`` sweep and
the simulated learned estimators start from the same counts.  The oracle
splits a connected sub-join into two counted, connected halves, materializes
them with the executor's :class:`Scan` and :func:`hash_join`, and counts
their matches with :func:`join_result_size`: the join being counted is never
materialized, and nothing is sampled (an intermediate beyond the executor's
join-size cap raises its ``JoinOverflowError``, a timeout to the drivers).
Counts and halves are memoized per query until ``reset``.  ARCHITECTURE.md,
"The oracle", gives the rule and its reasons.  The oracle's own cost is not
charged to the measured execution time, exactly as in the paper.
"""

from __future__ import annotations

from repro.executor.chunk import Chunk, MaterializationStats
from repro.executor.joins import combine_key_pair, join_result_size
from repro.executor.operators import ExecContext, Scan, hash_join, join_keys
from repro.optimizer.cardinality import CardinalityEstimator, MIN_ROWS
from repro.plan.expressions import JoinPredicate, Predicate
from repro.plan.logical import RelationRef
from repro.plan.physical import ScanNode, scan_signature
from repro.storage.database import Database

#: A relation subset, as the scan signatures of its relations.
_Subset = frozenset[tuple]


class TrueCardinalityOracle:
    """Exact output cardinalities of sub-joins, counted with the executor's
    operators.  A relation is keyed by its scan signature, so a memoized
    count never answers for the same alias under other filters."""

    def __init__(self, database: Database):
        self.database = database
        self._ctx = ExecContext(database=database, stats=MaterializationStats())
        #: query name -> (connected subset -> exact unclamped rows,
        #: connected subset -> its materialized rows).
        self._memo: dict[str, tuple[dict[_Subset, int], dict[_Subset, Chunk]]] = {}
        #: Sub-join counts computed: probes the memo did not answer.
        self.counted = 0

    def true_rows(self, relations: tuple[RelationRef, ...],
                  filters: tuple[Predicate, ...],
                  join_predicates: tuple[JoinPredicate, ...],
                  query_name: str = "") -> float:
        """Exact number of rows produced by the sub-join (at least
        ``MIN_ROWS``)."""
        # Relations by key, and joins between two of them as (key, key, pred):
        # a join inside a temporary was applied when it was built.
        self._scans: dict[tuple, ScanNode] = {}
        owner: dict[str, tuple] = {}
        for relation in relations:
            own = tuple(pred for pred in filters
                        if pred.aliases() <= relation.covered_aliases)
            key = scan_signature(relation, own)
            self._scans[key] = ScanNode(relation=relation, filters=own)
            owner.update(dict.fromkeys(relation.covered_aliases, key))
        self._edges = [(owner[pred.left.alias], owner[pred.right.alias], pred)
                       for pred in join_predicates
                       if owner[pred.left.alias] != owner[pred.right.alias]]
        self._counts, self._chunks = self._memo.setdefault(query_name, ({}, {}))
        rows = 1
        for component in self._components(frozenset(self._scans)):
            rows *= self._count(component)
        return max(float(rows), MIN_ROWS)

    @property
    def memo_size(self) -> int:
        """Sub-join counts currently memoized, over every query."""
        return sum(len(counts) for counts, _ in self._memo.values())

    def reset(self) -> None:
        """Drop all memoized counts and rows (call between queries to bound
        memory)."""
        self._memo.clear()

    def _components(self, subset: _Subset) -> list[_Subset]:
        """Connected components of ``subset``, in relation order."""
        component = {key: frozenset((key,)) for key in self._scans if key in subset}
        for left, right, _ in self._edges:
            if left in subset and right in subset and (
                    component[left] is not component[right]):
                merged = component[left] | component[right]
                component.update(dict.fromkeys(merged, merged))
        return list(dict.fromkeys(component.values()))

    def _count(self, subset: _Subset) -> int:
        """Exact rows of the connected sub-join over ``subset``."""
        rows = self._counts.get(subset)
        if rows is None:
            if len(subset) == 1:
                rows = self._chunk(subset).num_rows
            else:
                larger, smaller = self._split(subset)
                left_keys, right_keys = join_keys(
                    self._ctx, self._chunk(larger), self._chunk(smaller),
                    self._between(larger, smaller))
                keys = (combine_key_pair(left_keys, right_keys) if len(left_keys) > 1
                        else (left_keys[0], right_keys[0]))
                rows = join_result_size(*keys)
            self._counts[subset] = rows
            self.counted += 1
        return rows

    def _split(self, subset: _Subset) -> tuple[_Subset, _Subset]:
        """``(larger, smaller)``: of the splits of ``subset`` into two counted
        connected halves, the one whose larger half has the fewest rows.
        When there is none, ``subset`` minus one relation is counted first."""
        for key in self._scans:
            if key in subset:
                self._count(frozenset((key,)))
        best = None
        for half, rows in self._counts.items():
            rest_rows = self._counts.get(subset - half) if half < subset else None
            # Each split is seen from both halves; take it from the larger.
            if rest_rows is not None and rest_rows <= rows and (
                    best is None or rows < best[0]):
                best = (rows, half, subset - half)
        if best is None:
            self._count(next(rest for rest in (subset - {key} for key in self._scans
                                               if key in subset)
                             if len(self._components(rest)) == 1))
            return self._split(subset)
        return best[1], best[2]

    def _chunk(self, subset: _Subset) -> Chunk:
        """The rows of the connected, counted sub-join over ``subset``."""
        chunk = self._chunks.get(subset)
        if chunk is None:
            if len(subset) == 1:
                chunk = Scan(self._scans[next(iter(subset))]).execute(self._ctx)
            else:
                larger, smaller = self._split(subset)
                chunk = hash_join(self._ctx, self._chunk(larger),
                                  self._chunk(smaller),
                                  self._between(larger, smaller))
            self._chunks[subset] = chunk
        return chunk

    def _between(self, left: _Subset, right: _Subset) -> tuple[JoinPredicate, ...]:
        """Join predicates connecting two disjoint subsets."""
        return tuple(pred for a, b, pred in self._edges
                     if (a in left and b in right) or (a in right and b in left))


class OracleCardinalityEstimator(CardinalityEstimator):
    """Estimator returning *true* cardinalities (the "Optimal" baseline)."""

    def __init__(self, database: Database, oracle: TrueCardinalityOracle | None = None):
        super().__init__(database)
        self.oracle = oracle or TrueCardinalityOracle(database)

    def estimate_rows(self, relations, filters, join_predicates, query_name="") -> float:
        return self.oracle.true_rows(relations, filters, join_predicates,
                                     query_name)
