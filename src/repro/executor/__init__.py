"""Vectorized query executor (late-materialization engine).

The executor evaluates physical plans over the in-memory columnar tables
with a small operator pipeline (:mod:`repro.executor.operators`): filters
become boolean masks, equi-joins match gathered key columns by direct
addressing (dense integer keys) or sort/searchsorted, and index nested-loop
joins probe the pre-built sorted indexes.  Intermediate results are
:class:`~repro.executor.chunk.Chunk` selection vectors (one base-table
row-id vector per relation); real columns are materialized exactly once at
the plan root.

Executed subtrees can be shared across plans, queries, and re-optimization
policies through the signature-keyed
:class:`~repro.executor.subplan_cache.SubplanCache`.

Besides producing results, the executor records the *actual* cardinality and
wall-clock time of every operator, which is the runtime feedback that all
re-optimization algorithms consume.
"""

from repro.executor.chunk import Chunk, MaterializationStats
from repro.executor.executor import ExecutionError, ExecutionResult, Executor
from repro.executor.joins import equi_join_indices, multi_key_equi_join
from repro.executor.subplan_cache import SubplanCache

__all__ = [
    "Chunk",
    "ExecutionError",
    "ExecutionResult",
    "Executor",
    "MaterializationStats",
    "SubplanCache",
    "equi_join_indices",
    "multi_key_equi_join",
]
