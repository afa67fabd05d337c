"""Predicates and column references.

All column references are *alias-qualified* (``ColumnRef("t", "id")`` means
column ``id`` of the relation bound to alias ``t`` in the query).  Predicates
fall in two groups:

* **filter predicates** (single relation): comparisons, ranges, IN-lists,
  string containment / prefix, NOT NULL, and disjunctions of these;
* **join predicates**: equality between two column references from different
  relations (only equi-joins are supported, as in the paper's evaluation).

Each filter predicate knows how to evaluate itself against numpy column
arrays through a ``resolve`` callback, which keeps the executor generic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Signature of the callback predicates use to obtain column data.
ColumnResolver = Callable[["ColumnRef"], np.ndarray]


@dataclass(frozen=True, order=True)
class ColumnRef:
    """An alias-qualified reference to a column (``alias.column``)."""

    alias: str
    column: str

    @property
    def qualified(self) -> str:
        """The qualified name used for intermediate-result columns."""
        return f"{self.alias}.{self.column}"

    def __str__(self) -> str:
        return self.qualified


class Predicate:
    """Base class for single-relation filter predicates.

    Concrete predicates are frozen dataclasses; most expose the column they
    apply to as a ``column`` field (OR predicates may span several columns of
    the same relation and expose them via :meth:`column_refs` only).
    """

    def aliases(self) -> frozenset[str]:
        """Aliases of the relations referenced by this predicate."""
        return frozenset(ref.alias for ref in self.column_refs())

    def column_refs(self) -> tuple[ColumnRef, ...]:
        """All column references used by the predicate."""
        raise NotImplementedError

    def evaluate(self, resolve: ColumnResolver) -> np.ndarray:
        """Evaluate to a boolean mask over the rows supplied by ``resolve``."""
        raise NotImplementedError


@dataclass(frozen=True)
class Comparison(Predicate):
    """``column <op> literal`` where op is one of =, !=, <, <=, >, >=."""

    column: ColumnRef
    op: str
    value: object

    _OPS = {"=", "!=", "<", "<=", ">", ">="}

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unsupported comparison operator {self.op!r}")

    def column_refs(self) -> tuple[ColumnRef, ...]:
        return (self.column,)

    def evaluate(self, resolve: ColumnResolver) -> np.ndarray:
        values = resolve(self.column)
        if self.op == "=":
            return values == self.value
        if self.op == "!=":
            return values != self.value
        if self.op == "<":
            return values < self.value
        if self.op == "<=":
            return values <= self.value
        if self.op == ">":
            return values > self.value
        return values >= self.value


@dataclass(frozen=True)
class Between(Predicate):
    """``low <= column <= high`` (both bounds inclusive)."""

    column: ColumnRef
    low: object
    high: object

    def column_refs(self) -> tuple[ColumnRef, ...]:
        return (self.column,)

    def evaluate(self, resolve: ColumnResolver) -> np.ndarray:
        values = resolve(self.column)
        return (values >= self.low) & (values <= self.high)


@dataclass(frozen=True)
class InList(Predicate):
    """``column IN (v1, v2, ...)``."""

    column: ColumnRef
    values: tuple

    def column_refs(self) -> tuple[ColumnRef, ...]:
        return (self.column,)

    def evaluate(self, resolve: ColumnResolver) -> np.ndarray:
        data = resolve(self.column)
        if not self.values:
            return np.zeros(len(data), dtype=bool)
        try:
            needles = np.asarray(list(self.values), dtype=data.dtype)
            # The cast must round-trip: e.g. 3.7 silently truncates to 3 in
            # an int column and would then match rows the predicate should
            # not.  Mismatches take the elementwise fallback below instead.
            if all(c == v for c, v in zip(needles.tolist(), self.values)):
                return np.isin(data, needles)
        except (TypeError, ValueError, OverflowError):
            pass
        # Mixed/non-representable values: OR of elementwise equality, which
        # follows the same comparison semantics as Comparison("=").
        mask = np.zeros(len(data), dtype=bool)
        for value in self.values:
            mask |= np.asarray(data == value, dtype=bool)
        return mask


@dataclass(frozen=True)
class IsNotNull(Predicate):
    """``column IS NOT NULL`` (NULL is ``None`` for strings, NaN for floats)."""

    column: ColumnRef

    def column_refs(self) -> tuple[ColumnRef, ...]:
        return (self.column,)

    def evaluate(self, resolve: ColumnResolver) -> np.ndarray:
        data = resolve(self.column)
        if data.dtype == object:
            return np.array([v is not None for v in data], dtype=bool)
        if data.dtype.kind == "f":
            return ~np.isnan(data)
        return np.ones(len(data), dtype=bool)


@dataclass(frozen=True)
class StringContains(Predicate):
    """``column LIKE '%needle%'`` on a string column."""

    column: ColumnRef
    needle: str

    def column_refs(self) -> tuple[ColumnRef, ...]:
        return (self.column,)

    def evaluate(self, resolve: ColumnResolver) -> np.ndarray:
        data = resolve(self.column)
        return _string_mask(data, lambda arr: np.char.find(arr, self.needle) >= 0)


@dataclass(frozen=True)
class StringPrefix(Predicate):
    """``column LIKE 'prefix%'`` on a string column."""

    column: ColumnRef
    prefix: str

    def column_refs(self) -> tuple[ColumnRef, ...]:
        return (self.column,)

    def evaluate(self, resolve: ColumnResolver) -> np.ndarray:
        data = resolve(self.column)
        return _string_mask(data, lambda arr: np.char.startswith(arr, self.prefix))


@dataclass(frozen=True)
class OrPredicate(Predicate):
    """Disjunction of filter predicates over the *same* relation."""

    children: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        aliases = {a for child in self.children for a in child.aliases()}
        if len(aliases) > 1:
            raise ValueError("OR predicates must reference a single relation")

    def column_refs(self) -> tuple[ColumnRef, ...]:
        refs: list[ColumnRef] = []
        for child in self.children:
            refs.extend(child.column_refs())
        return tuple(refs)

    def evaluate(self, resolve: ColumnResolver) -> np.ndarray:
        mask = self.children[0].evaluate(resolve)
        for child in self.children[1:]:
            mask = mask | child.evaluate(resolve)
        return mask


def _string_mask(data: np.ndarray, matcher) -> np.ndarray:
    """Evaluate a vectorized string matcher, treating ``None`` as non-matching."""
    if data.dtype == object:
        nulls = np.array([v is None for v in data], dtype=bool)
        if nulls.any():
            filled = np.where(nulls, "", data).astype(str)
            return matcher(filled) & ~nulls
        data = data.astype(str)
    return matcher(data)


@dataclass(frozen=True, order=True)
class JoinPredicate:
    """Equi-join predicate ``left = right`` between two relations."""

    left: ColumnRef
    right: ColumnRef

    def __post_init__(self) -> None:
        if self.left.alias == self.right.alias:
            raise ValueError("join predicate must reference two distinct relations")

    def aliases(self) -> frozenset[str]:
        """The pair of aliases this predicate connects."""
        return frozenset((self.left.alias, self.right.alias))

    def other(self, alias: str) -> ColumnRef:
        """The side of the predicate *not* belonging to ``alias``."""
        if self.left.alias == alias:
            return self.right
        if self.right.alias == alias:
            return self.left
        raise KeyError(f"join predicate does not reference alias {alias!r}")

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"
