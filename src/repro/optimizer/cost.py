"""Cost model for physical plan operators.

The parameters follow PostgreSQL's conventions (sequential / random page
cost, CPU tuple cost, ...), scaled so that costs roughly track the wall-clock
behaviour of the vectorized in-memory executor:

* a **hash join** pays to materialize (build) its inner input and to probe
  with its outer input;
* an **index nested-loop join** pays a per-probe cost proportional to the
  outer cardinality plus a per-match cost -- cheap when the outer input is
  small, ruinous when it is large;
* a **plain nested-loop join** is quadratic and only ever chosen for tiny
  inputs or cross products;
* **materializing** a temporary table (the re-optimization overhead the
  paper accounts for) costs a per-row write plus a per-row statistics pass.
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
    materialize_factor: float = 2.0
    statistics_factor: float = 1.0


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
        """Incremental cost of a join (children's costs not included)."""
        if method is JoinMethod.HASH:
            return self.hash_join_cost(outer_rows, inner_rows, output_rows)
        if method is JoinMethod.INDEX_NL:
            if not inner_indexed:
                raise ValueError("INDEX_NL join requires an indexed inner relation")
            return self.index_nl_cost(outer_rows, inner_rows, output_rows)
        if method is JoinMethod.MERGE:
            return self.merge_join_cost(outer_rows, inner_rows, output_rows,
                                        self.sort_cost(outer_rows),
                                        self.sort_cost(inner_rows))
        return self.nested_loop_cost(outer_rows, inner_rows, output_rows)

    # The per-method formulas are public so the join enumerator, which
    # scores every split of every relation subset, can skip the dispatch.

    def hash_join_cost(self, outer_rows, inner_rows, output_rows) -> float:
        """Build on the inner input, probe with the outer, emit the output."""
        p = self.params
        build = inner_rows * p.cpu_tuple_cost * p.hash_build_factor
        probe = outer_rows * (p.cpu_tuple_cost + p.cpu_operator_cost)
        emit = output_rows * p.cpu_tuple_cost
        return build + probe + emit

    def index_nl_cost(self, outer_rows, inner_rows, output_rows) -> float:
        """One index descent per outer row; ``inner_rows`` is the indexed
        table's raw size."""
        p = self.params
        # Each outer row descends the index: a few random page touches worth
        # of work amortized plus per-index-tuple CPU.
        per_probe = (p.random_page_cost / p.rows_per_page
                     + p.cpu_index_tuple_cost * math.log2(max(inner_rows, 2.0)))
        probes = outer_rows * per_probe
        emit = output_rows * p.cpu_tuple_cost
        return probes + emit

    def sort_cost(self, rows: float) -> float:
        """Cost of sorting one merge-join input.

        It depends on that input alone, so a caller costing many joins of
        the same input computes it once and hands it to
        :meth:`merge_join_cost`.
        """
        return rows * self.params.cpu_operator_cost * math.log2(max(rows, 2.0))

    def merge_join_cost(self, outer_rows, inner_rows, output_rows,
                        outer_sort: float, inner_sort: float) -> float:
        """Sort both inputs (their :meth:`sort_cost`), then one merging scan."""
        p = self.params
        sort = outer_sort + inner_sort
        scan = (outer_rows + inner_rows) * p.cpu_tuple_cost
        emit = output_rows * p.cpu_tuple_cost
        return sort + scan + emit

    def nested_loop_cost(self, outer_rows, inner_rows, output_rows) -> float:
        """Compare every outer row with every inner row."""
        p = self.params
        return (outer_rows * inner_rows * p.cpu_operator_cost
                + output_rows * p.cpu_tuple_cost)

    # ------------------------------------------------------------------
    # Re-optimization overheads
    # ------------------------------------------------------------------
    def materialize_cost(self, rows: float) -> float:
        """Cost of writing a result into a temporary table."""
        return rows * self.params.cpu_tuple_cost * self.params.materialize_factor

    def analyze_cost(self, rows: float) -> float:
        """Cost of collecting statistics on a materialized temporary table."""
        return rows * self.params.cpu_tuple_cost * self.params.statistics_factor
