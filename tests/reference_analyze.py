"""The previous ANALYZE, verbatim, as a test oracle.

This is ``analyze_columns`` (with ``_analyze_column``, ``_scale_ndv`` and
``Histogram.from_values``) as it stood before every statistic was read off
the one ``np.unique`` sort: the histogram came from a second sort in
``np.quantile``, the null fraction from ``nulls.mean()``, min and max from
an ``astype(float)`` copy, and each call built its own generator.
``tests/test_catalog.py`` holds the new ANALYZE to these statistics, Python
types included.  Do not edit except to delete.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.statistics import ColumnStats, Histogram, TableStats
from repro.catalog.types import DataType
from repro.storage.dictionary import null_mask

DEFAULT_MCV_SIZE = 10
DEFAULT_HISTOGRAM_BUCKETS = 16
DEFAULT_SAMPLE_ROWS = 10_000


def histogram_from_values(values: np.ndarray, num_buckets: int = 32) -> Histogram | None:
    """``Histogram.from_values``: an ``np.quantile`` over the sample."""
    if len(values) == 0:
        return None
    clean = values[~np.isnan(values)] if values.dtype.kind == "f" else values
    if len(clean) == 0:
        return None
    quantiles = np.linspace(0.0, 1.0, num_buckets + 1)
    bounds = np.quantile(clean, quantiles)
    if bounds[0] == bounds[-1]:
        return None
    return Histogram(bounds=np.asarray(bounds, dtype=float))


def analyze_columns(columns: dict[str, np.ndarray],
                    num_rows: int | None = None,
                    mcv_size: int = DEFAULT_MCV_SIZE,
                    histogram_buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
                    sample_rows: int = DEFAULT_SAMPLE_ROWS,
                    rng: np.random.Generator | None = None,
                    dictionaries: dict[str, np.ndarray] | None = None
                    ) -> TableStats:
    """Full statistics for a mapping of column name -> numpy array."""
    dictionaries = dictionaries or {}
    if num_rows is None:
        num_rows = len(next(iter(columns.values()))) if columns else 0
    stats = TableStats(num_rows=num_rows)
    if num_rows == 0:
        for name, values in columns.items():
            dtype = (DataType.STRING if name in dictionaries
                     else DataType.from_numpy(np.asarray(values).dtype))
            stats.columns[name] = ColumnStats(dtype=dtype, num_rows=0, ndv=0)
        return stats

    rng = rng or np.random.default_rng(0)
    for name, values in columns.items():
        values = np.asarray(values)
        if len(values) > sample_rows:
            idx = rng.choice(len(values), size=sample_rows, replace=False)
            sample = values[idx]
        else:
            sample = values
        stats.columns[name] = _analyze_column(
            sample, total_rows=num_rows, mcv_size=mcv_size,
            histogram_buckets=histogram_buckets,
            dictionary=dictionaries.get(name))
    return stats


def _analyze_column(sample: np.ndarray, total_rows: int,
                    mcv_size: int, histogram_buckets: int,
                    dictionary: np.ndarray | None = None) -> ColumnStats:
    """Analyze one column sample, scaling counts up to ``total_rows``."""
    encoded = dictionary is not None
    dtype = DataType.STRING if encoded else DataType.from_numpy(sample.dtype)
    sample_size = len(sample)
    if sample_size == 0:
        return ColumnStats(dtype=dtype, num_rows=total_rows, ndv=0)

    nulls = sample < 0 if encoded else null_mask(sample)
    non_null = sample[~nulls]
    null_fraction = float(nulls.mean()) if sample_size else 0.0

    if len(non_null) == 0:
        return ColumnStats(dtype=dtype, num_rows=total_rows, ndv=0,
                           null_fraction=null_fraction)

    uniques, counts = np.unique(non_null, return_counts=True)
    sample_ndv = len(uniques)
    ndv = _scale_ndv(sample_ndv, len(non_null), int(total_rows * (1 - null_fraction)))

    order = np.argsort(counts)[::-1]
    top = order[:mcv_size]
    mcv_values = [uniques[i] for i in top if counts[i] > 1]
    if encoded:
        mcv_values = [dictionary[code] for code in mcv_values]
    mcv_fractions = [float(counts[i]) / len(non_null) for i in top if counts[i] > 1]

    min_value = max_value = None
    histogram = None
    if dtype.is_numeric:
        numeric = non_null.astype(float)
        min_value = float(numeric.min())
        max_value = float(numeric.max())
        histogram = histogram_from_values(numeric, num_buckets=histogram_buckets)

    return ColumnStats(
        dtype=dtype,
        num_rows=total_rows,
        null_fraction=null_fraction,
        ndv=ndv,
        min_value=min_value,
        max_value=max_value,
        mcv_values=mcv_values,
        mcv_fractions=mcv_fractions,
        histogram=histogram,
    )


def _scale_ndv(sample_ndv: int, sample_rows: int, total_rows: int) -> int:
    """Scale a sample NDV to the full table."""
    if sample_rows == 0 or total_rows == 0:
        return 0
    if sample_rows >= total_rows:
        return sample_ndv
    if sample_ndv == sample_rows:
        return total_rows
    ratio = total_rows / sample_rows
    estimate = int(min(total_rows, round(sample_ndv * min(ratio, 1 + (ratio - 1) * 0.5))))
    return max(estimate, sample_ndv)
