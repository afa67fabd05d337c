"""Fused predicate kernels: the compiled scan hot path.

:class:`PredicateCompiler` turns a scan's conjunctive predicate list into
a **single-pass evaluator**.  Predicates are ordered by estimated
selectivity (cheap-and-selective first), the first one is evaluated
vectorized over the full row range, and every subsequent predicate is
evaluated only on the rows that survived so far (gather-then-compare on
the shrinking candidate set, short-circuiting when it empties).  Because
the filters form a conjunction, reordering cannot change the result: the
emitted row-id vector is bit-identical to the naive all-rows-per-predicate
loop, while the work drops from ``num_predicates`` full column passes to
one full pass plus passes over ever-smaller survivor sets.

This module deliberately imports neither the operators nor the executor
(they import *it*); execution counters are duck-typed on the ``ctx``
object threaded through :meth:`PredicateCompiler.evaluate_range`.
"""

from __future__ import annotations

import numpy as np

from repro.plan.expressions import (
    Between,
    Comparison,
    InList,
    IsNotNull,
    OrPredicate,
    Predicate,
    StringContains,
    StringPrefix,
)
from repro.storage.dictionary import CodeMaskPredicate


# ----------------------------------------------------------------------
# Selectivity-ordered fused evaluation
# ----------------------------------------------------------------------
def selectivity_rank(predicate: Predicate) -> float:
    """Heuristic selectivity estimate in [0, 1]; lower evaluates first.

    Only the *relative* order matters.  The ranks follow the classic
    textbook defaults (equality is rare, ``!=`` and NOT NULL are common)
    with one data-driven refinement: a code-mask predicate knows exactly
    what fraction of the dictionary it matches.
    """
    if isinstance(predicate, CodeMaskPredicate):
        return predicate.match_fraction
    if isinstance(predicate, Comparison):
        if predicate.op == "=":
            return 0.05
        if predicate.op == "!=":
            return 0.9
        return 0.35
    if isinstance(predicate, Between):
        return 0.2
    if isinstance(predicate, StringPrefix):
        return 0.1
    if isinstance(predicate, InList):
        return 0.15
    if isinstance(predicate, StringContains):
        return 0.5
    if isinstance(predicate, IsNotNull):
        return 0.95
    if isinstance(predicate, OrPredicate):
        return min(1.0, sum(selectivity_rank(child)
                            for child in predicate.children))
    return 0.5


class PredicateCompiler:
    """A scan conjunction compiled into a single-pass fused evaluator."""

    __slots__ = ("predicates",)

    def __init__(self, filters):
        filters = tuple(filters)
        # Stable (rank, original position) order: ties keep the pushed-down
        # order, so the compiled plan is deterministic.
        order = sorted(range(len(filters)),
                       key=lambda i: (selectivity_rank(filters[i]), i))
        self.predicates = tuple(filters[i] for i in order)

    def evaluate_range(self, resolve, length: int, ctx=None) -> np.ndarray:
        """Row positions (ascending ``int64``) satisfying the conjunction.

        ``resolve`` maps a :class:`ColumnRef` to the column slice covering
        the ``length`` rows under evaluation.  ``ctx`` (optional) receives
        the fused-pass counter: ``fused_rows_touched`` accumulates the
        candidate-set size each predicate actually evaluated over.
        """
        first = self.predicates[0]
        mask = np.asarray(first.evaluate(resolve), dtype=bool)
        positions = np.nonzero(mask)[0].astype(np.int64, copy=False)
        if ctx is not None:
            ctx.fused_rows_touched += length
        for predicate in self.predicates[1:]:
            if positions.size == 0:
                break
            before = positions.size
            mask = np.asarray(
                predicate.evaluate(lambda ref: resolve(ref)[positions]),
                dtype=bool)
            positions = positions[mask]
            if ctx is not None:
                ctx.fused_rows_touched += before
        return positions
