"""The previous dictionary encoder, verbatim, as a test oracle.

This is ``encode_column`` (with the ``null_mask`` it called) as it stood
before the encoder found the distinct values with one hashing pass: a
per-row null test, a per-row string check and an object-dtype
``np.unique`` over every non-null value.  ``tests/test_storage.py`` holds
the new encoder to these codes and dictionaries, element types included.
Do not edit except to delete.
"""

from __future__ import annotations

import numpy as np

from repro.storage.dictionary import NULL_CODE


def null_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of NULL entries, per the engine's dtype conventions.

    ``None`` (and a stray ``float('nan')``) are null in object columns,
    ``NaN`` is null in float columns, and integer/bool columns have no
    null representation at all.
    """
    values = np.asarray(values)
    if values.dtype == object:
        return np.fromiter(
            (v is None or (isinstance(v, float) and np.isnan(v))
             for v in values),
            dtype=bool, count=len(values))
    if values.dtype.kind == "f":
        return np.isnan(values)
    return np.zeros(len(values), dtype=bool)


def encode_column(values: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Dictionary-encode one object column: ``(int32 codes, sorted dict)``.

    Returns ``None`` when the column is not eligible (any non-null value
    is not a plain string -- a mixed-type object column has no total order
    the sorted dictionary could preserve).
    """
    values = np.asarray(values)
    if values.dtype != object:
        return None
    nulls = null_mask(values)
    non_null = values[~nulls]
    if len(non_null) and not all(isinstance(v, str) for v in non_null):
        return None
    dictionary, inverse = np.unique(non_null, return_inverse=True)
    dictionary = dictionary.astype(object)
    codes = np.full(len(values), NULL_CODE, dtype=np.int32)
    codes[~nulls] = inverse.astype(np.int32, copy=False)
    return codes, dictionary
