"""Non-SPJ query support (Section 3.3).

Non-SPJ queries are trees of aggregation / union operators whose leaves are
SPJ blocks.  The paper's extension segments the plan at the non-SPJ operators
and runs QuerySplit (or any baseline) on each SPJ block bottom-up,
materializing each operator's output before the parent consumes it.

:func:`execute_query_tree` implements that segmentation generically: it takes
a callback that knows how to execute one SPJ block (this is what
differentiates QuerySplit from the baselines) and applies the non-SPJ
operators on the materialized block outputs.
"""

from __future__ import annotations

from typing import Callable

from repro.executor.aggregates import group_aggregate, union_all
from repro.plan.logical import (
    AggregateNode,
    QueryPlanNode,
    SPJNode,
    SPJQuery,
    UnionNode,
)
from repro.storage.table import DataTable

#: Signature of the per-SPJ-block execution callback.
SPJRunner = Callable[[SPJQuery], DataTable]


def execute_query_tree(root: QueryPlanNode, run_spj: SPJRunner) -> DataTable:
    """Execute a (possibly non-SPJ) query tree bottom-up.

    Parameters
    ----------
    root:
        The query tree.
    run_spj:
        Callback executing one SPJ block and returning its result table with
        qualified column names.
    """
    if isinstance(root, SPJNode):
        return run_spj(root.query)
    if isinstance(root, AggregateNode):
        child_node = root.child
        if isinstance(child_node, SPJNode):
            # Make sure the SPJ block keeps the columns the aggregation needs.
            child = run_spj(_with_aggregation_columns(child_node.query, root))
        else:
            child = execute_query_tree(child_node, run_spj)
        return group_aggregate(child, root.group_by, root.aggregates)
    if isinstance(root, UnionNode):
        tables = [execute_query_tree(child, run_spj) for child in root.inputs]
        return union_all(tables)
    raise TypeError(f"unsupported query tree node {type(root).__name__}")


def _with_aggregation_columns(spj: SPJQuery, node: AggregateNode) -> SPJQuery:
    """Extend an SPJ block's projection with its parent aggregation's inputs."""
    if spj.aggregates:
        return spj
    needed = tuple(node.group_by) + tuple(
        spec.column for spec in node.aggregates if spec.column is not None)
    combined = tuple(dict.fromkeys(spj.projections + needed))
    if combined == spj.projections:
        return spj
    return spj.with_projections(combined)

