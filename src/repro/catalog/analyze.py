"""ANALYZE: compute table / column statistics from actual column data.

This is the reproduction of PostgreSQL's statistics collector used by the
paper (Section 5): after a subquery's result is materialized into a temporary
table, QuerySplit (and the baseline re-optimizers) optionally run these
routines so the optimizer can estimate cardinalities over the new relation.

Like PostgreSQL's ANALYZE, :func:`analyze_columns` computes statistics only
for the columns it is handed: the re-optimization drivers pass the columns
the next plan can ask about (:meth:`SPJQuery.columns_read_after
<repro.plan.logical.SPJQuery.columns_read_after>`), not every column of a
temporary.  Dictionary-encoded string columns are analyzed on their
``int32`` codes -- the dictionary is sorted, so code order is value order
and every statistic equals the one computed over the strings; only the MCV
winners are decoded.

Each column's sample is sorted once, by ``np.unique(..., return_counts=True)``,
and every statistic is read off that one sort, as PostgreSQL's
``compute_scalar_stats`` does: the NDV, the MCV list, the min and max (the
first and last unique) and the histogram bounds
(:meth:`Histogram.from_counts <repro.catalog.statistics.Histogram.from_counts>`).
"""

from __future__ import annotations

import numpy as np

from repro.catalog.statistics import ColumnStats, Histogram, TableStats
from repro.catalog.types import DataType
from repro.storage.dictionary import null_mask

#: Number of most-common values retained per column.
DEFAULT_MCV_SIZE = 10

#: Number of histogram buckets per numeric column.
DEFAULT_HISTOGRAM_BUCKETS = 16

#: Maximum sample size used for statistics collection (rows).
DEFAULT_SAMPLE_ROWS = 10_000


def analyze_columns(columns: dict[str, np.ndarray],
                    num_rows: int | None = None,
                    mcv_size: int = DEFAULT_MCV_SIZE,
                    histogram_buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
                    sample_rows: int = DEFAULT_SAMPLE_ROWS,
                    rng: np.random.Generator | None = None,
                    dictionaries: dict[str, np.ndarray] | None = None
                    ) -> TableStats:
    """Compute full statistics for a mapping of column name -> numpy array.

    Columns longer than ``sample_rows`` are sampled with one ``rng.choice``
    draw per column from a single generator, in the order given -- so which
    sample a column gets depends on its position among the *analyzed*
    columns.  The default generator is built at the first such column, so
    a call that samples nothing never builds one.

    Parameters
    ----------
    columns:
        Column arrays (all the same length).
    num_rows:
        Total row count; defaults to the length of the first column.
    mcv_size, histogram_buckets, sample_rows:
        Statistics resolution knobs (PostgreSQL's ``default_statistics_target``
        analogue).
    rng:
        Random generator used for sampling large tables; deterministic by
        default.
    dictionaries:
        Sorted value dictionary of every column in ``columns`` that holds
        ``int32`` dictionary codes (``-1`` = NULL) instead of strings.
    """
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

    for name, values in columns.items():
        values = np.asarray(values)
        if len(values) > sample_rows:
            if rng is None:
                rng = np.random.default_rng(0)
            idx = rng.choice(len(values), size=sample_rows, replace=False)
            sample = values[idx]
        else:
            sample = values
        stats.columns[name] = _analyze_column(
            sample, total_rows=num_rows, mcv_size=mcv_size,
            histogram_buckets=histogram_buckets,
            dictionary=dictionaries.get(name))
    return stats


def analyze_table(table, **kwargs) -> TableStats:
    """Compute full statistics for a :class:`repro.storage.table.DataTable`.

    Dictionary-encoded columns are analyzed on their stored codes (no
    column is decoded); statistics such as MCVs still hold real strings,
    equal to those an analysis of the decoded values would give.
    """
    return analyze_columns(table.columns, num_rows=table.num_rows,
                           dictionaries=table.dictionaries, **kwargs)


def _analyze_column(sample: np.ndarray, total_rows: int,
                    mcv_size: int, histogram_buckets: int,
                    dictionary: np.ndarray | None = None) -> ColumnStats:
    """Analyze one column sample, scaling counts up to ``total_rows``.

    With a ``dictionary`` the sample holds codes into it: NULL is a negative
    code, and since the dictionary is sorted ``np.unique`` over the codes
    yields the same distinct values in the same order as over the strings.
    """
    encoded = dictionary is not None
    dtype = DataType.STRING if encoded else DataType.from_numpy(sample.dtype)
    sample_size = len(sample)
    if sample_size == 0:
        return ColumnStats(dtype=dtype, num_rows=total_rows, ndv=0)

    # Dtype-aware null handling shared with the dictionary encoder: object
    # columns may hold None (or stray NaN) regardless of the inferred
    # DataType, and float columns use NaN.  The previous
    # ``np.isnan(sample.astype(float))`` crashed on string data reaching
    # the FLOAT branch via object arrays of mixed numerics.
    nulls = sample < 0 if encoded else null_mask(sample)
    non_null = sample[~nulls]
    null_fraction = int(np.count_nonzero(nulls)) / sample_size

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
        min_value = float(uniques[0])
        max_value = float(uniques[-1])
        histogram = Histogram.from_counts(uniques, counts,
                                          num_buckets=histogram_buckets)

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
    """Scale a sample NDV ``d`` from ``n`` sampled rows to ``N`` total rows.

    When every sampled value is distinct we assume the column is (nearly)
    unique; when there are repeats we scale ``d`` halfway between no growth
    and linear growth with the table, capped at the total row count.
    """
    if sample_rows == 0 or total_rows == 0:
        return 0
    if sample_rows >= total_rows:
        return sample_ndv
    if sample_ndv == sample_rows:
        return total_rows
    # d * (1 + (N/n - 1) / 2), rounded, in [d, N].  The ``min`` always
    # takes its second term here, since N/n > 1.
    ratio = total_rows / sample_rows
    estimate = int(min(total_rows, round(sample_ndv * min(ratio, 1 + (ratio - 1) * 0.5))))
    return max(estimate, sample_ndv)
