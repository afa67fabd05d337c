"""Table and column statistics used by the cardinality estimator.

These mirror the statistics PostgreSQL's ANALYZE collects and the paper's
Statistics Collector consumes (Section 5 and Section 6.4): row counts, the
number of distinct values (NDV), the most common values (MCVs) with their
frequencies, equi-depth histograms for numeric columns, and null fractions.

Two flavours exist because of the paper's "Collecting Statistics Or Not?"
study (Figure 15):

* **full statistics** -- produced by :func:`repro.catalog.analyze.analyze_table`;
* **row-count only** -- produced by :meth:`TableStats.row_count_only`, where
  every column falls back to default NDV / selectivity guesses, exactly like
  a freshly created temporary table that has never been analyzed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.catalog.types import DataType

#: Default number-of-distinct-values guess used by the estimator when a column
#: has never been analyzed (PostgreSQL uses a similar magic constant of 200).
DEFAULT_NDV = 200

#: Default selectivity for equality predicates on unanalyzed columns.
DEFAULT_EQ_SELECTIVITY = 0.005

#: Default selectivity for range predicates on unanalyzed columns.
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0


@functools.lru_cache(maxsize=None)
def _quantile_grid(num_buckets: int) -> np.ndarray:
    """The quantile fractions of ``num_buckets`` equal-depth buckets, built
    once per bucket count (read-only: every histogram shares it)."""
    grid = np.linspace(0.0, 1.0, num_buckets + 1)
    grid.flags.writeable = False
    return grid


@dataclass
class Histogram:
    """An equi-depth histogram over a numeric column.

    ``bounds`` holds ``num_buckets + 1`` bucket boundaries; each bucket is
    assumed to contain the same number of rows (equal depth).
    """

    bounds: np.ndarray

    @property
    def num_buckets(self) -> int:
        """Number of buckets in the histogram."""
        return max(len(self.bounds) - 1, 0)

    @classmethod
    def from_values(cls, values: np.ndarray, num_buckets: int = 32) -> "Histogram | None":
        """Build an equi-depth histogram from a numeric column sample.

        ``NaN`` is dropped; the rest goes through :meth:`from_counts`.
        Returns ``None`` when no value, or a single value, is left.
        """
        clean = values[~np.isnan(values)] if values.dtype.kind == "f" else values
        return cls.from_counts(*np.unique(clean, return_counts=True),
                               num_buckets=num_buckets)

    @classmethod
    def from_counts(cls, uniques: np.ndarray, counts: np.ndarray,
                    num_buckets: int = 32) -> "Histogram | None":
        """Build an equi-depth histogram from ``np.unique``'s sorted output.

        The bounds are ``numpy.quantile(sample.astype(float), linspace,
        method="linear")`` read off the cumulative counts instead of a
        second sort, so they are the same floats: numpy's virtual index
        ``(n - 1) * q``, its clamp of positions at or above ``n - 1`` to
        the last value (with ``gamma`` taken against index -1), and its
        ``_lerp`` (``a + d*t``, or ``b - d*(1 - t)`` where ``t >= 0.5``).
        One exception: when the sample holds both ``0.0`` and ``-0.0``, a
        zero bound carries the sign of the zero ``np.unique`` kept, where
        ``numpy.quantile`` takes whichever its partition put in place.

        Returns ``None`` when there is no value or a single one (a
        histogram adds no information in that case).
        """
        if len(uniques) == 0:
            return None
        quantiles = _quantile_grid(num_buckets)
        cumulative = np.cumsum(counts)
        n = int(cumulative[-1])
        virtual = (n - 1) * quantiles
        previous = np.floor(virtual)
        above = virtual >= n - 1
        previous[above] = -1
        gamma = virtual - previous
        low_rank = previous.astype(np.intp)
        high_rank = low_rank + 1
        low_rank[above] = n - 1
        high_rank[above] = n - 1
        # The k-th order statistic is the first unique whose cumulative
        # count exceeds k.
        low = uniques[np.searchsorted(cumulative, low_rank, side="right")].astype(float)
        high = uniques[np.searchsorted(cumulative, high_rank, side="right")].astype(float)
        step = high - low
        bounds = np.add(low, step * gamma)
        np.subtract(high, step * (1 - gamma), out=bounds, where=gamma >= 0.5)
        if bounds[0] == bounds[-1]:
            return None
        return cls(bounds=bounds)

    def selectivity_le(self, value: float) -> float:
        """Estimated fraction of rows with column value <= ``value``."""
        bounds = self.bounds
        if value < bounds[0]:
            return 0.0
        if value >= bounds[-1]:
            return 1.0
        # Find the bucket containing the value and interpolate inside it.
        idx = int(np.searchsorted(bounds, value, side="right")) - 1
        idx = min(max(idx, 0), self.num_buckets - 1)
        lo, hi = bounds[idx], bounds[idx + 1]
        frac_in_bucket = 0.5 if hi == lo else (value - lo) / (hi - lo)
        return (idx + frac_in_bucket) / self.num_buckets

    def selectivity_range(self, low: float | None, high: float | None,
                          low_inclusive: bool = True,
                          high_inclusive: bool = True) -> float:
        """Estimated fraction of rows in the (possibly half-open) range."""
        lo_sel = 0.0 if low is None else self.selectivity_le(low)
        hi_sel = 1.0 if high is None else self.selectivity_le(high)
        sel = hi_sel - lo_sel
        return float(min(max(sel, 0.0), 1.0))

    def value_at_fraction(self, fraction: float) -> float:
        """Inverse CDF: the column value below which ``fraction`` of rows fall.

        This is the sampling counterpart of :meth:`selectivity_le`; the
        workload generator uses it to turn a target selectivity into concrete
        range bounds drawn from the observed value distribution.
        """
        fraction = min(max(fraction, 0.0), 1.0)
        position = fraction * self.num_buckets
        idx = min(int(position), self.num_buckets - 1)
        lo, hi = self.bounds[idx], self.bounds[idx + 1]
        return float(lo + (position - idx) * (hi - lo))


@dataclass
class ColumnStats:
    """Statistics for a single column."""

    dtype: DataType
    num_rows: int
    null_fraction: float = 0.0
    ndv: int | None = None
    min_value: float | None = None
    max_value: float | None = None
    mcv_values: list = field(default_factory=list)
    mcv_fractions: list[float] = field(default_factory=list)
    histogram: Histogram | None = None

    @property
    def analyzed(self) -> bool:
        """True if real statistics (beyond the row count) are available."""
        return self.ndv is not None

    def effective_ndv(self) -> int:
        """NDV to use in estimation formulas, falling back to the default guess."""
        if self.ndv is not None and self.ndv > 0:
            return self.ndv
        return max(1, min(DEFAULT_NDV, self.num_rows))

    def mcv_fraction_for(self, value) -> float | None:
        """Frequency of ``value`` if it is one of the most common values."""
        for mcv, frac in zip(self.mcv_values, self.mcv_fractions):
            if mcv == value:
                return frac
        return None

    def total_mcv_fraction(self) -> float:
        """Total fraction of rows covered by the MCV list."""
        return float(sum(self.mcv_fractions))

    def equality_selectivity(self, value) -> float:
        """Estimated selectivity of ``column = value``."""
        if self.num_rows == 0:
            return 0.0
        if not self.analyzed:
            return DEFAULT_EQ_SELECTIVITY
        mcv = self.mcv_fraction_for(value)
        if mcv is not None:
            return mcv
        # Value is not an MCV: spread the remaining mass over the remaining
        # distinct values (the PostgreSQL formula).
        remaining_fraction = max(1.0 - self.total_mcv_fraction() - self.null_fraction, 0.0)
        remaining_ndv = max(self.effective_ndv() - len(self.mcv_values), 1)
        return remaining_fraction / remaining_ndv

    # ------------------------------------------------------------------
    # Distribution-driven sampling (used by the random workload generator)
    # ------------------------------------------------------------------
    def sample_value(self, rng: "np.random.Generator"):
        """Draw one plausible column value from the observed distribution.

        Prefers the MCV list (weighted by frequency, which is how a real
        point query is most likely to probe the column) and falls back to the
        histogram / min-max range for numeric columns.  Returns ``None`` when
        no value can be derived from the available statistics.
        """
        if self.mcv_values and (
                not self.dtype.is_numeric
                or rng.random() < max(self.total_mcv_fraction(), 0.1)):
            weights = np.asarray(self.mcv_fractions, dtype=float)
            idx = int(rng.choice(len(self.mcv_values), p=weights / weights.sum()))
            return _python_scalar(self.mcv_values[idx])
        if self.dtype.is_numeric:
            if self.histogram is not None:
                value = self.histogram.value_at_fraction(float(rng.random()))
            elif self.min_value is not None and self.max_value is not None:
                value = float(rng.uniform(self.min_value, self.max_value))
            else:
                return None
            return int(round(value)) if self.dtype is not DataType.FLOAT else value
        return None

    def sample_range(self, rng: "np.random.Generator",
                     target_selectivity: float) -> tuple | None:
        """Draw ``(low, high)`` bounds covering ~``target_selectivity`` rows.

        The bounds come from the histogram's inverse CDF (or the min/max span
        for histogram-less columns), so a target of 0.1 yields a range that
        actually selects about 10% of the rows regardless of skew.  Returns
        ``None`` for non-numeric or unanalyzed columns.
        """
        if not self.dtype.is_numeric:
            return None
        target_selectivity = min(max(target_selectivity, 0.0), 1.0)
        start = float(rng.uniform(0.0, 1.0 - target_selectivity))
        if self.histogram is not None:
            low = self.histogram.value_at_fraction(start)
            high = self.histogram.value_at_fraction(start + target_selectivity)
        elif self.min_value is not None and self.max_value is not None:
            span = self.max_value - self.min_value
            low = self.min_value + start * span
            high = low + target_selectivity * span
        else:
            return None
        if self.dtype is not DataType.FLOAT:
            return int(np.floor(low)), int(np.ceil(high))
        return float(low), float(high)

    def sample_in_values(self, rng: "np.random.Generator",
                         max_values: int = 4) -> tuple | None:
        """Draw a distinct IN-list from the MCV values (``None`` if too few)."""
        available = len(self.mcv_values)
        if available < 2 or max_values < 2:
            return None
        count = int(rng.integers(2, min(max_values, available) + 1))
        indices = rng.choice(available, size=count, replace=False)
        return tuple(_python_scalar(self.mcv_values[i]) for i in sorted(indices))

    def range_selectivity(self, low=None, high=None) -> float:
        """Estimated selectivity of ``low <= column <= high`` (either bound optional)."""
        if self.num_rows == 0:
            return 0.0
        if not self.analyzed or self.histogram is None:
            if not self.dtype.is_numeric or self.min_value is None or self.max_value is None:
                return DEFAULT_RANGE_SELECTIVITY
            span = self.max_value - self.min_value
            if span <= 0:
                return DEFAULT_RANGE_SELECTIVITY
            lo = self.min_value if low is None else max(low, self.min_value)
            hi = self.max_value if high is None else min(high, self.max_value)
            return float(min(max((hi - lo) / span, 0.0), 1.0))
        return self.histogram.selectivity_range(low, high)


def _python_scalar(value):
    """Convert numpy scalars to plain Python values (predicate literals)."""
    return value.item() if isinstance(value, np.generic) else value


@dataclass
class TableStats:
    """Statistics for a whole table (base table or materialized temporary)."""

    num_rows: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats | None:
        """Statistics for ``name`` or ``None`` if the column was never analyzed."""
        return self.columns.get(name)

    def column_or_default(self, name: str, dtype: DataType = DataType.INT) -> ColumnStats:
        """Statistics for ``name``, falling back to an unanalyzed placeholder."""
        stats = self.columns.get(name)
        if stats is not None:
            return stats
        return ColumnStats(dtype=dtype, num_rows=self.num_rows)

    @classmethod
    def row_count_only(cls, num_rows: int) -> "TableStats":
        """Statistics carrying only the row count (unanalyzed temporary table)."""
        return cls(num_rows=num_rows, columns={})

    @property
    def analyzed(self) -> bool:
        """True if per-column statistics are available."""
        return bool(self.columns)
