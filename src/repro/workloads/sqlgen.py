"""Seeded random workload generation over any loaded :class:`Database`.

The fixed benchmark suites (JOB / TPC-H / DSB) exercise the re-optimization
policies on a few dozen hand-picked plans.  This module produces *unbounded*
seeded query streams instead: :class:`RandomQueryGenerator` walks the
schema's foreign-key graph to sample join trees, draws filter predicates from
the actual column value distributions recorded by ANALYZE
(:mod:`repro.catalog.statistics`), and optionally wraps the result in a
GROUP BY aggregation -- emitting valid :class:`~repro.plan.logical.Query`
logical-plan objects directly, with no SQL text or parsing in between.

Determinism is a hard guarantee: the stream is a pure function of
``(database schema + statistics, seed, sampler configs)``.  Query ``i`` is
sampled from ``numpy.random.default_rng([seed, i])``, so the stream can be
regenerated, sliced, or extended without replaying a shared RNG state --
``generate(50)`` twice, or ``generate(10)`` followed by
``generate(40, start=10)``, produce identical queries.

Typical use (see ``examples/generated_stream.py``)::

    generator = RandomQueryGenerator(
        database,
        seed=1,
        join_config=JoinSamplerConfig(max_joins=6, fk_only=False),
        predicate_config=PredicateSamplerConfig(max_predicates=4),
        aggregate_config=AggregateSamplerConfig(group_by_probability=0.25),
    )
    result = run_generated(generator, 100, "QuerySplit")
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.catalog.statistics import ColumnStats
from repro.catalog.types import DataType
from repro.plan.expressions import (
    Between,
    ColumnRef,
    Comparison,
    InList,
    JoinPredicate,
    Predicate,
    StringPrefix,
)
from repro.plan.logical import (
    AggregateNode,
    AggregateSpec,
    Query,
    QueryPlanNode,
    RelationRef,
    SPJNode,
    SPJQuery,
)
from repro.storage.database import Database


# ----------------------------------------------------------------------
# Sampler configurations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JoinSamplerConfig:
    """Knobs of the join-tree sampler.

    Parameters
    ----------
    max_joins, min_joins:
        The number of join predicates is drawn uniformly from
        ``[min_joins, max_joins]`` (fewer if the FK graph runs out of
        reachable tables first).
    fk_only:
        When True (default) only PK-FK edges declared in the schema are
        sampled, so every join is the non-expanding kind QuerySplit favours.
        When False, *cross-FK* edges are also eligible: two tables that both
        reference the same primary key may be joined directly on their
        foreign-key columns (an implied join through a shared dimension,
        which is exactly the expanding fk-fk case the paper's DSB queries
        stress).
    """

    max_joins: int = 4
    min_joins: int = 0
    fk_only: bool = True

    def __post_init__(self) -> None:
        if self.min_joins < 0 or self.max_joins < self.min_joins:
            raise ValueError("need 0 <= min_joins <= max_joins")


@dataclass(frozen=True)
class PredicateSamplerConfig:
    """Knobs of the filter-predicate sampler.

    The number of filters is drawn uniformly from ``[0, max_predicates]``;
    each filter picks a column of a joined table (join-key columns are
    excluded) and a predicate shape compatible with that column's statistics:

    * numeric columns: a selectivity-targeted range (``BETWEEN`` with bounds
      from the histogram's inverse CDF), a point lookup, or an IN-list;
    * string columns: a point lookup, an IN-list, or a ``LIKE 'prefix%'``,
      all drawn from the most-common-value list.

    ``selectivity`` bounds the target fraction of rows a range predicate
    selects; the shape weights need not sum to one (they are normalized over
    the shapes actually available for the chosen column).

    ``point_drop_rate`` is the defio-style point-query drop knob: a sampled
    equality predicate whose statistics-estimated match count is at most
    ``point_drop_rows`` rows is *discarded* with this probability (the
    filter slot stays empty), so a stream is not dominated by single-row
    point lookups on near-unique columns.  The knob defaults to 0.0, in which case no extra random draw happens and
    existing seeded streams are byte-identical to before.
    """

    max_predicates: int = 3
    selectivity: tuple[float, float] = (0.05, 0.5)
    range_weight: float = 0.5
    point_weight: float = 0.25
    in_weight: float = 0.15
    prefix_weight: float = 0.1
    max_in_values: int = 4
    point_drop_rate: float = 0.0
    point_drop_rows: float = 2.0

    def __post_init__(self) -> None:
        low, high = self.selectivity
        if not (0.0 <= low <= high <= 1.0):
            raise ValueError("selectivity bounds must satisfy 0 <= low <= high <= 1")
        if self.max_predicates < 0:
            raise ValueError("max_predicates must be >= 0")
        if self.max_in_values < 2:
            raise ValueError("max_in_values must be >= 2 (an IN-list needs "
                             "at least two values)")
        if not 0.0 <= self.point_drop_rate <= 1.0:
            raise ValueError("point_drop_rate must be within [0, 1]")
        if self.point_drop_rows < 0:
            raise ValueError("point_drop_rows must be >= 0")


@dataclass(frozen=True)
class AggregateSamplerConfig:
    """Knobs of the aggregate sampler.

    Every generated query carries a ``COUNT(*)`` output (queries then always
    have a deterministic, easily comparable result, mirroring the fixed
    suites) plus up to ``max_aggregates`` extra aggregates over sampled
    columns.  With probability ``group_by_probability`` the query becomes a
    non-SPJ GROUP BY tree over a column with at most ``max_group_ndv``
    distinct values (keeping result sizes bounded).
    """

    max_aggregates: int = 2
    functions: tuple[str, ...] = ("min", "max", "sum", "avg")
    group_by_probability: float = 0.0
    max_group_ndv: int = 50

    def __post_init__(self) -> None:
        unknown = set(self.functions) - {"min", "max", "sum", "avg"}
        if unknown:
            raise ValueError(f"unsupported aggregate functions: {sorted(unknown)}")
        if not (0.0 <= self.group_by_probability <= 1.0):
            raise ValueError("group_by_probability must be in [0, 1]")


# ----------------------------------------------------------------------
# FK-graph join edges
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JoinEdge:
    """An undirected joinable column pair derived from the schema's FK graph."""

    left_table: str
    left_column: str
    right_table: str
    right_column: str
    kind: str  # "pk-fk" or "fk-fk"

    def other(self, table: str) -> tuple[str, str]:
        """The ``(table, column)`` endpoint that is not ``table``."""
        if table == self.left_table:
            return self.right_table, self.right_column
        return self.left_table, self.left_column

    def column_of(self, table: str) -> str:
        """The join column on the ``table`` side."""
        return self.left_column if table == self.left_table else self.right_column


def join_edges(database: Database, fk_only: bool = True) -> tuple[JoinEdge, ...]:
    """All joinable column pairs between the *loaded* base tables.

    PK-FK edges come straight from the schema's foreign-key declarations;
    with ``fk_only=False``, fk-fk edges additionally connect every pair of
    tables referencing the same primary key.  The result is sorted so edge
    order (and therefore the sampled stream) is independent of dict/set
    iteration order.
    """
    loaded = set(database.base_table_names)
    edges: list[JoinEdge] = []
    referencing: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for table_name in sorted(loaded):
        for fk in database.schema.table(table_name).foreign_keys:
            if fk.ref_table not in loaded or fk.ref_table == table_name:
                continue
            edges.append(JoinEdge(table_name, fk.column,
                                  fk.ref_table, fk.ref_column, kind="pk-fk"))
            referencing.setdefault((fk.ref_table, fk.ref_column), []).append(
                (table_name, fk.column))
    if not fk_only:
        for (_, _), referrers in sorted(referencing.items()):
            for (t1, c1), (t2, c2) in itertools.combinations(sorted(referrers), 2):
                if t1 != t2:
                    edges.append(JoinEdge(t1, c1, t2, c2, kind="fk-fk"))
    return tuple(sorted(
        edges, key=lambda e: (e.left_table, e.left_column,
                              e.right_table, e.right_column, e.kind)))


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------
class RandomQueryGenerator:
    """Seeded generator of random, valid queries over a loaded database.

    Parameters
    ----------
    database:
        The database whose schema, loaded tables, and ANALYZE statistics
        drive the sampling.  Generated queries are guaranteed to reference
        only loaded tables and existing columns, so they plan and execute
        without error under every algorithm.
    seed:
        Stream seed.  The same ``(database, seed, configs)`` always produces
        the identical query stream.
    join_config, predicate_config, aggregate_config:
        Sampler knobs; defaults give FK-only joins of depth <= 4 with up to
        three filters and scalar aggregates only.
    name_prefix:
        Generated queries are named ``f"{name_prefix}-{seed}-{index}"``.
    """

    def __init__(self, database: Database, seed: int = 0,
                 join_config: JoinSamplerConfig | None = None,
                 predicate_config: PredicateSamplerConfig | None = None,
                 aggregate_config: AggregateSamplerConfig | None = None,
                 name_prefix: str = "gen"):
        if not database.base_table_names:
            raise ValueError("database has no loaded base tables to sample from")
        self.database = database
        self.seed = int(seed)
        self.join_config = join_config or JoinSamplerConfig()
        self.predicate_config = predicate_config or PredicateSamplerConfig()
        self.aggregate_config = aggregate_config or AggregateSamplerConfig()
        self.name_prefix = name_prefix
        self._edges = join_edges(database, fk_only=self.join_config.fk_only)
        self._tables = tuple(sorted(database.base_table_names))
        self._connected = tuple(sorted(
            {e.left_table for e in self._edges} | {e.right_table for e in self._edges}))
        #: table -> its :meth:`_table_columns`, computed on first use.  Base
        #: tables' statistics are fixed once loaded, so these are too.
        self._columns: dict[str, tuple[tuple[str, ColumnStats, bool,
                                              tuple[str, ...]], ...]] = {}

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------
    def generate(self, n: int, start: int = 0) -> list[Query]:
        """The ``n`` queries at stream positions ``start .. start + n - 1``."""
        return [self.query_at(index) for index in range(start, start + n)]

    def __iter__(self) -> Iterator[Query]:
        """Iterate the unbounded stream from position 0."""
        return (self.query_at(index) for index in itertools.count())

    def query_at(self, index: int) -> Query:
        """Sample the query at stream position ``index`` (a pure function)."""
        rng = np.random.default_rng([self.seed, int(index)])
        relations, join_predicates = self._sample_joins(rng)
        join_key_columns = {
            (pred.left.alias, pred.left.column) for pred in join_predicates
        } | {(pred.right.alias, pred.right.column) for pred in join_predicates}
        tables = tuple(rel.table_name for rel in relations)
        filters = self._sample_filters(rng, tables, join_key_columns)
        aggregates = self._sample_aggregates(rng, tables)
        group_by = self._sample_group_by(rng, tables, join_key_columns)

        name = f"{self.name_prefix}-{self.seed}-{index}"
        metadata = {
            "generated": True,
            "seed": self.seed,
            "index": index,
            "num_joins": len(join_predicates),
        }
        if group_by is None:
            spj = SPJQuery(name=name, relations=relations, filters=filters,
                           join_predicates=join_predicates, aggregates=aggregates)
            return Query.from_spj(spj, **metadata)
        spj = SPJQuery(name=name, relations=relations, filters=filters,
                       join_predicates=join_predicates)
        root: QueryPlanNode = AggregateNode(
            child=SPJNode(spj), group_by=(group_by,), aggregates=aggregates)
        return Query(name=name, root=root, metadata=metadata)

    # ------------------------------------------------------------------
    # Join sampling: a random connected walk of the FK graph
    # ------------------------------------------------------------------
    def _sample_joins(self, rng: np.random.Generator
                      ) -> tuple[tuple[RelationRef, ...], tuple[JoinPredicate, ...]]:
        config = self.join_config
        num_joins = int(rng.integers(config.min_joins, config.max_joins + 1))
        if num_joins > 0 and self._connected:
            start = self._connected[int(rng.integers(len(self._connected)))]
        else:
            start = self._tables[int(rng.integers(len(self._tables)))]
        joined = [start]
        predicates: list[JoinPredicate] = []
        for _ in range(num_joins):
            member = set(joined)
            candidates = [
                edge for edge in self._edges
                if (edge.left_table in member) != (edge.right_table in member)
            ]
            if not candidates:
                break
            edge = candidates[int(rng.integers(len(candidates)))]
            inner = edge.left_table if edge.left_table in member else edge.right_table
            outer, outer_column = edge.other(inner)
            joined.append(outer)
            predicates.append(JoinPredicate(
                ColumnRef(inner, edge.column_of(inner)),
                ColumnRef(outer, outer_column)))
        # Aliases are the table names themselves (each table appears at most
        # once per query), matching the readable style of the fixed suites.
        relations = tuple(RelationRef.base(t, t) for t in sorted(joined))
        return relations, tuple(predicates)

    # ------------------------------------------------------------------
    # Predicate sampling: shapes and literals from ANALYZE statistics
    # ------------------------------------------------------------------
    def _table_columns(self, table: str
                       ) -> tuple[tuple[str, ColumnStats, bool, tuple[str, ...]], ...]:
        """``(column, stats, is primary key, applicable filter shapes)`` of
        every column of ``table`` with usable ANALYZE statistics, in schema
        order; derived once per table."""
        columns = self._columns.get(table)
        if columns is None:
            stats = self.database.stats(table)
            schema = self.database.schema.table(table)
            columns = []
            for column in schema.column_names:
                column_stats = stats.column(column)
                if column_stats is not None and column_stats.analyzed:
                    columns.append((column, column_stats,
                                    column == schema.primary_key,
                                    self._applicable_shapes(column_stats)))
            columns = self._columns[table] = tuple(columns)
        return columns

    def _analyzed_columns(self, tables: tuple[str, ...]
                          ) -> Iterator[tuple[str, str, ColumnStats]]:
        """Every ``(table, column, stats)`` with usable ANALYZE statistics."""
        for table in tables:
            for column, column_stats, _, _ in self._table_columns(table):
                yield table, column, column_stats

    def _filter_candidates(self, tables: tuple[str, ...],
                           join_key_columns: set[tuple[str, str]]
                           ) -> list[tuple[str, str, ColumnStats, tuple[str, ...]]]:
        """``(table, column, stats, applicable shapes)`` per filterable column."""
        return [(table, column, column_stats, shapes)
                for table in tables
                for column, column_stats, is_pk, shapes in self._table_columns(table)
                if shapes and not is_pk and (table, column) not in join_key_columns]

    def _applicable_shapes(self, stats: ColumnStats) -> tuple[str, ...]:
        shapes = []
        if stats.dtype.is_numeric:
            if stats.histogram is not None or (
                    stats.min_value is not None and stats.max_value is not None
                    and stats.max_value > stats.min_value):
                shapes.append("range")
        if stats.mcv_values or stats.dtype.is_numeric:
            shapes.append("point")
        if len(stats.mcv_values) >= 2:
            shapes.append("in")
        if stats.dtype is DataType.STRING and any(
                isinstance(v, str) and v for v in stats.mcv_values):
            shapes.append("prefix")
        return tuple(shapes)

    def _sample_filters(self, rng: np.random.Generator, tables: tuple[str, ...],
                        join_key_columns: set[tuple[str, str]]
                        ) -> tuple[Predicate, ...]:
        config = self.predicate_config
        count = int(rng.integers(0, config.max_predicates + 1))
        if count == 0:
            return ()
        candidates = self._filter_candidates(tables, join_key_columns)
        if not candidates:
            return ()
        picked = rng.choice(len(candidates), size=min(count, len(candidates)),
                            replace=False)
        weights = {"range": config.range_weight, "point": config.point_weight,
                   "in": config.in_weight, "prefix": config.prefix_weight}
        filters: list[Predicate] = []
        for i in sorted(int(p) for p in picked):
            table, column, stats, shapes = candidates[i]
            shape_weights = np.asarray([weights[s] for s in shapes], dtype=float)
            if shape_weights.sum() <= 0:
                continue
            shape = shapes[int(rng.choice(len(shapes),
                                          p=shape_weights / shape_weights.sum()))]
            predicate = self._build_filter(rng, ColumnRef(table, column), stats, shape)
            if predicate is not None:
                filters.append(predicate)
        return tuple(filters)

    def _build_filter(self, rng: np.random.Generator, ref: ColumnRef,
                      stats: ColumnStats, shape: str) -> Predicate | None:
        config = self.predicate_config
        if shape == "range":
            target = float(rng.uniform(*config.selectivity))
            bounds = stats.sample_range(rng, target)
            if bounds is None:
                return None
            return Between(ref, bounds[0], bounds[1])
        if shape == "point":
            value = stats.sample_value(rng)
            if value is None:
                return None
            if config.point_drop_rate > 0.0:
                # Drop near-unique point lookups (estimated <= point_drop_rows
                # matches) with the configured probability.  The rate>0 guard
                # keeps default-config streams byte-identical: no extra rng
                # draw unless the knob is turned on.
                expected = stats.equality_selectivity(value) * stats.num_rows
                if (expected <= config.point_drop_rows
                        and rng.random() < config.point_drop_rate):
                    return None
            return Comparison(ref, "=", value)
        if shape == "in":
            values = stats.sample_in_values(rng, config.max_in_values)
            if values is None:
                return None
            return InList(ref, values)
        # shape == "prefix"
        strings = [v for v in stats.mcv_values if isinstance(v, str) and v]
        if not strings:
            return None
        value = strings[int(rng.integers(len(strings)))]
        length = int(rng.integers(1, min(len(value), 4) + 1))
        return StringPrefix(ref, value[:length])

    # ------------------------------------------------------------------
    # Aggregate sampling
    # ------------------------------------------------------------------
    def _sample_aggregates(self, rng: np.random.Generator,
                           tables: tuple[str, ...]) -> tuple[AggregateSpec, ...]:
        config = self.aggregate_config
        specs = [AggregateSpec("count", None, "row_count")]
        extra = int(rng.integers(0, config.max_aggregates + 1))
        if extra == 0:
            return tuple(specs)
        candidates = [(table, column, column_stats.dtype)
                      for table, column, column_stats
                      in self._analyzed_columns(tables)]
        if not candidates:
            return tuple(specs)
        picked = rng.choice(len(candidates), size=min(extra, len(candidates)),
                            replace=False)
        for i in sorted(int(p) for p in picked):
            table, column, dtype = candidates[i]
            allowed = (config.functions if dtype.is_numeric else
                       tuple(f for f in config.functions if f in ("min", "max")))
            if not allowed:
                continue
            func = allowed[int(rng.integers(len(allowed)))]
            specs.append(AggregateSpec(
                func, ColumnRef(table, column), f"{func}_{table}_{column}"))
        return tuple(specs)

    def _sample_group_by(self, rng: np.random.Generator, tables: tuple[str, ...],
                         join_key_columns: set[tuple[str, str]]) -> ColumnRef | None:
        config = self.aggregate_config
        if config.group_by_probability <= 0.0:
            return None
        if rng.random() >= config.group_by_probability:
            return None
        candidates = [
            ColumnRef(table, column)
            for table, column, column_stats in self._analyzed_columns(tables)
            if (table, column) not in join_key_columns
            and column_stats.ndv is not None
            and 1 <= column_stats.ndv <= config.max_group_ndv
        ]
        if not candidates:
            return None
        return candidates[int(rng.integers(len(candidates)))]
