"""Dictionary encoding for string columns + code-space predicate translation.

At load time (:meth:`Database.load_table
<repro.storage.database.Database.load_table>`) every eligible object-dtype
column of a base table is re-stored as

* an ``int32`` **code** array (``-1`` encodes NULL), and
* a sorted, duplicate-free **dictionary** of the column's distinct non-null
  string values.

Columns that are not eligible (indexed, or holding non-string values) stay
object arrays, and filters evaluate their predicates in value space.

Because the dictionary is sorted, the mapping is *order-preserving*: value
comparisons translate to integer comparisons on codes.  That buys the
executor's one filter path (:func:`repro.executor.operators.filter_rows`:
scans and the residual filters of an index probe) two things:

1. predicate evaluation happens on ``int32`` arrays instead of Python-level
   object comparisons (:func:`translate_filters` rewrites a filter
   conjunction into code space);
2. predicates with no representable match (an equality literal absent from
   the dictionary, an empty prefix range) are recognized as unsatisfiable
   *before* touching any data.

**Codes until a value is needed.**  Inside the engine an encoded column is
``(int32 codes, dictionary shared by reference)`` everywhere: the plan root
gathers ``codes[row_ids]`` and passes the table's dictionary along, so
result tables, temporaries registered from them, QuerySplit's final merge
and the aggregation kernel (:mod:`repro.executor.aggregates`: group ids
from ``code + 1``, MIN/MAX on codes) never see a string.  Decoding happens
in exactly two places: a join key (``DataTable.gather`` -- joins compare
values, since two tables' codes are unrelated; no filter decodes) and when
the caller asks for values (:meth:`DataTable.column_values
<repro.storage.table.DataTable.column_values>` / ``to_rows``: the result
checkers, the differential-test oracle).
ANALYZE (:mod:`repro.catalog.analyze`) reads the codes: the dictionary is
sorted, hence code order is value order, and only the few MCV winners are
looked up, so statistics still hold real strings.

One null rule serves the encoder and ANALYZE: :func:`is_null` tests one
object value (``None``, or a stray ``float('nan')``), and :func:`null_mask`
applies it to an object column, or tests ``NaN`` in a float column.  The
encoder applies it once per distinct value, not per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.plan.expressions import (
    Between,
    ColumnRef,
    Comparison,
    InList,
    IsNotNull,
    OrPredicate,
    Predicate,
    StringContains,
    StringPrefix,
)

#: Sentinels returned by :func:`translate_predicate` for conjuncts the
#: dictionary proves unsatisfiable / tautological over the whole column.
ALWAYS_FALSE = object()
ALWAYS_TRUE = object()

#: Code reserved for NULL (``None``) values.
NULL_CODE = -1


# ----------------------------------------------------------------------
# Shared null handling
# ----------------------------------------------------------------------
def is_null(value) -> bool:
    """True for the values an object column stores as NULL.

    ``None`` is NULL, and so is a stray ``float('nan')`` (any float NaN,
    ``np.float64`` included); every other value is not.
    """
    return value is None or (isinstance(value, float) and value != value)


def null_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of NULL entries, per the engine's dtype conventions.

    Object columns apply :func:`is_null` to each value, ``NaN`` is null in
    float columns, and integer/bool columns have no null representation at
    all.
    """
    values = np.asarray(values)
    if values.dtype == object:
        return np.fromiter(map(is_null, values.tolist()), dtype=bool,
                           count=len(values))
    if values.dtype.kind == "f":
        return np.isnan(values)
    return np.zeros(len(values), dtype=bool)


# ----------------------------------------------------------------------
# Encoding / decoding
# ----------------------------------------------------------------------
def encode_column(values: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Dictionary-encode one object column: ``(int32 codes, sorted dict)``.

    Returns ``None`` when the column is not eligible (any non-null value
    is not a plain string -- a mixed-type object column has no total order
    the sorted dictionary could preserve -- or a value is unhashable).

    One hashing pass over the rows finds the distinct values, keeping the
    first occurrence of each; the NULL and string checks run on those only,
    only the distinct strings are sorted, and a second pass maps every row
    to its code.  The cost is linear in rows, plus a sort of the distinct
    values.
    """
    values = np.asarray(values)
    if values.dtype != object:
        return None
    items = values.tolist()
    try:
        distinct = dict.fromkeys(items)
    except TypeError:
        return None
    strings = []
    for value in distinct:
        if is_null(value):
            distinct[value] = NULL_CODE
        elif isinstance(value, str):
            strings.append(value)
        else:
            return None
    strings.sort()
    for code, value in enumerate(strings):
        distinct[value] = code
    codes = np.fromiter(map(distinct.__getitem__, items), dtype=np.int32,
                        count=len(items))
    return codes, np.array(strings, dtype=object)


def decode_lookup(dictionary: np.ndarray) -> np.ndarray:
    """Decode table for a code array: ``lookup[codes]`` restores values.

    One extra ``None`` slot is appended so the NULL code (``-1``) indexes
    it via numpy's negative-index semantics.
    """
    lookup = np.empty(len(dictionary) + 1, dtype=object)
    lookup[:len(dictionary)] = dictionary
    lookup[len(dictionary)] = None
    return lookup


# ----------------------------------------------------------------------
# Code-space predicates
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class CodeMaskPredicate(Between):
    """Membership in a per-dictionary-entry boolean mask, over code arrays.

    The general translation target: the original predicate is evaluated
    once over the (small) dictionary, yielding one bit per distinct value;
    evaluating the column is then a single fancy-index into that table.
    The inherited :class:`Between` bounds are the first/last matching code.

    ``mask`` has one trailing ``False`` slot so the NULL code (``-1``)
    never matches (nulls fail every shape this class translates).
    """

    mask: np.ndarray = None  # bool, len(dictionary) + 1

    def evaluate(self, resolve) -> np.ndarray:
        codes = resolve(self.column)
        return self.mask[codes]

    @property
    def match_fraction(self) -> float:
        """Fraction of dictionary entries matching (a selectivity hint)."""
        if len(self.mask) <= 1:
            return 0.0
        return float(self.mask[:-1].mean())


def _code_mask_predicate(predicate: Predicate, ref: ColumnRef,
                         dictionary: np.ndarray):
    """Evaluate ``predicate`` over the dictionary into a code-mask predicate."""
    matches = np.asarray(predicate.evaluate(lambda _ref: dictionary),
                         dtype=bool)
    hits = np.nonzero(matches)[0]
    if len(hits) == 0:
        return ALWAYS_FALSE
    if len(hits) == len(dictionary):
        # Every distinct value matches -- but nulls never match IN / prefix
        # / contains, so this is "IS NOT NULL" in code space, not a
        # tautology (code >= 0 excludes the NULL code).
        return Comparison(ref, ">=", 0)
    mask = np.zeros(len(dictionary) + 1, dtype=bool)
    mask[hits] = True
    return CodeMaskPredicate(column=ref, low=int(hits[0]), high=int(hits[-1]),
                             mask=mask)


def _code_range(ref: ColumnRef, low: int, high: int):
    """``Between`` over codes in ``[low, high]`` (or the unsatisfiable sentinel)."""
    if low > high:
        return ALWAYS_FALSE
    return Between(ref, int(low), int(high))


def _translate_comparison(pred: Comparison, dictionary: np.ndarray):
    ref, op, value = pred.column, pred.op, pred.value
    if op in ("=", "!="):
        try:
            pos = int(np.searchsorted(dictionary, value, side="left"))
            present = pos < len(dictionary) and bool(dictionary[pos] == value)
        except TypeError:
            # Non-string literal: never equal to any dictionary value.
            present = False
        if op == "=":
            return (Comparison(ref, "=", pos) if present else ALWAYS_FALSE)
        # Nulls (code -1) satisfy "!=", matching the value-space semantics.
        return (Comparison(ref, "!=", pos) if present else ALWAYS_TRUE)
    # Ordering comparisons: map the literal to a code range.  A TypeError
    # (non-string literal against a string dictionary) propagates, exactly
    # like the value-space object-array comparison would.
    size = len(dictionary)
    if op == "<":
        return _code_range(ref, 0, int(np.searchsorted(dictionary, value, "left")) - 1)
    if op == "<=":
        return _code_range(ref, 0, int(np.searchsorted(dictionary, value, "right")) - 1)
    if op == ">":
        return _code_range(ref, int(np.searchsorted(dictionary, value, "right")), size - 1)
    # op == ">="
    return _code_range(ref, int(np.searchsorted(dictionary, value, "left")), size - 1)


def translate_predicate(predicate: Predicate, table, storage_name):
    """Rewrite one conjunct into code space where its column is encoded.

    Returns the predicate unchanged for unencoded columns / unknown shapes,
    a code-space replacement otherwise, or one of :data:`ALWAYS_FALSE` /
    :data:`ALWAYS_TRUE` when the dictionary decides the conjunct outright.
    """
    if isinstance(predicate, OrPredicate):
        children = []
        for child in predicate.children:
            translated = translate_predicate(child, table, storage_name)
            if translated is ALWAYS_TRUE:
                return ALWAYS_TRUE
            if translated is ALWAYS_FALSE:
                continue
            children.append(translated)
        if not children:
            return ALWAYS_FALSE
        if len(children) == 1:
            return children[0]
        return OrPredicate(tuple(children))

    refs = predicate.column_refs()
    if len(refs) != 1:
        return predicate
    ref = refs[0]
    name = storage_name(ref)
    if not table.is_encoded(name):
        return predicate
    dictionary = table.dictionary(name)

    if isinstance(predicate, Comparison):
        return _translate_comparison(predicate, dictionary)
    if isinstance(predicate, Between):
        # A TypeError (non-string bound) propagates like the value-space one.
        low = int(np.searchsorted(dictionary, predicate.low, "left"))
        high = int(np.searchsorted(dictionary, predicate.high, "right")) - 1
        return _code_range(ref, low, high)
    if isinstance(predicate, IsNotNull):
        # Non-null rows are exactly those with a real code.
        return Comparison(ref, ">=", 0)
    if isinstance(predicate, (InList, StringPrefix, StringContains)):
        return _code_mask_predicate(predicate, ref, dictionary)
    return predicate


def translate_filters(filters, table, storage_name
                      ) -> tuple[tuple, bool, int]:
    """Translate a scan conjunction: ``(predicates, impossible, translated)``.

    ``impossible`` is True when any conjunct is provably unsatisfiable (the
    scan can return the empty selection without reading data); tautological
    conjuncts are dropped.  ``translated`` counts predicates rewritten into
    code space (the ``dict_predicates`` execution counter).
    """
    if not getattr(table, "dictionaries", None):
        return tuple(filters), False, 0
    out = []
    translated = 0
    for predicate in filters:
        result = translate_predicate(predicate, table, storage_name)
        if result is ALWAYS_FALSE:
            return (), True, translated + 1
        if result is ALWAYS_TRUE:
            translated += 1
            continue
        if result is not predicate:
            translated += 1
        out.append(result)
    return tuple(out), False, translated
