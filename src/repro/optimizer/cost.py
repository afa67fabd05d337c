"""Cost model for physical plan operators.

The parameters follow PostgreSQL's conventions (sequential / random page
cost, CPU tuple cost, ...), scaled so that costs roughly track the wall-clock
behaviour of the vectorized in-memory executor.  There is one formula per
operator the executor has:

* a **scan** reads every row of the table and evaluates its filters;
* a **hash join** pays to materialize (build) its inner input and to probe
  with its outer input;
* an **index nested-loop join** pays a per-probe cost proportional to the
  outer cardinality plus a per-match cost -- cheap when the outer input is
  small, ruinous when it is large;
* a **plain nested-loop join** is quadratic and only ever chosen for tiny
  inputs or cross products.

The join enumerator scores every split of every relation subset, so it
evaluates the join formulas inline from per-subset terms, with the same
operations in the same order; ``tests/reference_enum.py`` plans through
:meth:`CostModel.join_cost` and must produce the same floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.plan.physical import JoinMethod


@dataclass(frozen=True)
class CostParameters:
    """Tunable cost constants (PostgreSQL-inspired defaults)."""

    seq_page_cost: float = 1.0
    random_page_cost: float = 4.0
    cpu_tuple_cost: float = 0.01
    cpu_index_tuple_cost: float = 0.005
    cpu_operator_cost: float = 0.0025
    rows_per_page: int = 100
    hash_build_factor: float = 1.5


class CostModel:
    """Computes operator and plan costs from estimated cardinalities."""

    def __init__(self, params: CostParameters | None = None):
        self.params = params or CostParameters()

    # ------------------------------------------------------------------
    # Leaf operators
    # ------------------------------------------------------------------
    #: Relative per-tuple cost of a filter evaluated in dictionary code
    #: space (an ``int32`` compare) versus a value-space one (which may be
    #: a Python-object comparison on string columns).
    code_space_filter_factor: float = 0.25

    def scan_cost(self, table_rows: float, output_rows: float,
                  num_filters: int = 0,
                  code_space_filters: int = 0) -> float:
        """Cost of a filtered sequential scan over every row of the table.

        ``code_space_filters`` counts how many of the ``num_filters``
        evaluate over dictionary-encoded columns; those are charged only
        :attr:`code_space_filter_factor` of the per-tuple operator cost,
        reflecting the int-compare fast path.
        """
        p = self.params
        pages = max(table_rows / p.rows_per_page, 1.0)
        code_space_filters = min(max(code_space_filters, 0), num_filters)
        effective_filters = (num_filters - code_space_filters
                             + code_space_filters * self.code_space_filter_factor)
        return (pages * p.seq_page_cost
                + table_rows * p.cpu_tuple_cost
                + table_rows * effective_filters * p.cpu_operator_cost
                + output_rows * p.cpu_tuple_cost)

    # ------------------------------------------------------------------
    # Join operators
    # ------------------------------------------------------------------
    def join_cost(self, method: JoinMethod, outer_rows: float, inner_rows: float,
                  output_rows: float, inner_indexed: bool = False) -> float:
        """Incremental cost of a join (children's costs not included).

        HASH builds on the inner input, probes with the outer and emits the
        output; INDEX_NL descends the index once per outer row
        (``inner_rows`` is the indexed table's raw size); NL compares every
        outer row with every inner row.
        """
        p = self.params
        emit = output_rows * p.cpu_tuple_cost
        if method is JoinMethod.HASH:
            build = inner_rows * p.cpu_tuple_cost * p.hash_build_factor
            probe = outer_rows * (p.cpu_tuple_cost + p.cpu_operator_cost)
            return build + probe + emit
        if method is JoinMethod.INDEX_NL:
            if not inner_indexed:
                raise ValueError("INDEX_NL join requires an indexed inner relation")
            return outer_rows * self.index_probe_cost(inner_rows) + emit
        return outer_rows * inner_rows * p.cpu_operator_cost + emit

    def index_probe_cost(self, table_rows: float) -> float:
        """Cost of one index descent into a table of ``table_rows`` rows: a
        few random page touches worth of work amortized plus per-index-tuple
        CPU."""
        p = self.params
        return (p.random_page_cost / p.rows_per_page
                + p.cpu_index_tuple_cost * math.log2(max(table_rows, 2.0)))
