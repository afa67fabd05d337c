"""Compiled-scan microbenchmark (beyond the paper).

The companion to :mod:`repro.experiments.bench_scan_pruning` for the
compiled-scan hot path.  Zone maps accelerate *which blocks* a scan reads;
dictionary codes accelerate *how the surviving rows are filtered*: string
predicates are evaluated over ``int32`` dictionary codes instead of
Python-object comparisons (:mod:`repro.storage.dictionary`).  Every scan
runs the fused, selectivity-ordered kernel
(:class:`~repro.executor.kernels.PredicateCompiler`).

The sweep runs four scan scenarios (string equality, string IN, and 3- and
4-predicate mixed-dtype conjunctions) with dictionary encoding off
(``baseline``) and on (``dict``).  Every cell cross-checks its row count
against the baseline mode, so a correctness bug can never hide behind a
good speedup.  Zone maps are disabled (``block_size=0``) throughout: the
predicate columns are unclustered, and this benchmark isolates the
per-row filtering cost.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.artifacts import ExperimentResult
from repro.bench.reporting import format_table
from repro.catalog.schema import Column, Schema, TableSchema
from repro.catalog.types import DataType
from repro.executor.executor import Executor
from repro.experiments.registry import experiment
from repro.plan.expressions import (
    Between,
    ColumnRef,
    Comparison,
    InList,
    StringPrefix,
)
from repro.plan.logical import AggregateSpec, RelationRef
from repro.plan.physical import PhysicalPlan, ScanNode
from repro.storage.database import Database, IndexConfig
from repro.storage.table import DataTable

PAPER_ARTIFACT = "Compiled-scan microbenchmark (beyond the paper)"

EVENTS_SCHEMA = Schema([
    TableSchema("events", [
        Column("e_id", DataType.INT),
        Column("e_a", DataType.INT),
        Column("e_b", DataType.INT),
        Column("e_c", DataType.FLOAT),
        Column("e_cat", DataType.STRING),
        Column("e_sku", DataType.STRING),
    ], primary_key="e_id"),
])

NUM_CATEGORIES = 64
NUM_SKUS = 4000


def build_events_database(num_rows: int, dict_encode: bool,
                          seed: int = 13, block_size: int = 0) -> Database:
    """Unclustered synthetic events."""
    rng = np.random.default_rng(seed)
    db = Database(EVENTS_SCHEMA, index_config=IndexConfig.NONE,
                  block_size=block_size, dict_encode=dict_encode)
    categories = np.array([f"cat_{i:02d}" for i in range(NUM_CATEGORIES)],
                          dtype=object)
    skus = np.array([f"sku_{i:05d}" for i in range(NUM_SKUS)], dtype=object)
    db.load_table(DataTable("events", {
        "e_id": np.arange(num_rows, dtype=np.int64),
        "e_a": rng.integers(0, 1000, num_rows),
        "e_b": rng.integers(0, 100, num_rows),
        "e_c": rng.normal(0.0, 1.0, num_rows),
        "e_cat": rng.choice(categories, num_rows),
        "e_sku": rng.choice(skus, num_rows),
    }), analyze=False)
    return db


def _ref(column: str) -> ColumnRef:
    return ColumnRef("events", column)


#: Scenario name -> pushed-down scan conjunction.  ``string_eq`` and
#: ``string_in`` are pure object-comparison cost; ``multi3`` has no string
#: predicate (a control: dictionary codes cannot help it); ``multi4`` mixes
#: numeric predicates with a string prefix.
SCENARIOS: dict[str, tuple] = {
    "string_eq": (Comparison(_ref("e_cat"), "=", "cat_07"),),
    "string_in": (InList(_ref("e_cat"), ("cat_03", "cat_11", "cat_42")),),
    "multi3": (Comparison(_ref("e_a"), "=", 7),
               Comparison(_ref("e_c"), ">", 0.0),
               Comparison(_ref("e_b"), "<=", 80)),
    "multi4": (Comparison(_ref("e_a"), "<", 25),
               StringPrefix(_ref("e_sku"), "sku_00"),
               Between(_ref("e_b"), 10, 90),
               Comparison(_ref("e_c"), ">", -1.0)),
}

#: Engine mode -> dict_encode.  ``baseline`` compares Python strings.
MODES: dict[str, bool] = {
    "baseline": False,
    "dict": True,
}


def _scan_plan(name: str, filters: tuple) -> PhysicalPlan:
    return PhysicalPlan(
        query_name=f"compiled-scan-{name}",
        root=ScanNode(relation=RelationRef.base("events", "events"),
                      filters=filters),
        aggregates=(AggregateSpec("count", None, "row_count"),),
    )


def _measure(executor: Executor, plan: PhysicalPlan, repeats: int):
    """Best-of-``repeats`` execution: (best seconds, last ExecutionResult)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = executor.execute(plan)
        best = min(best, time.perf_counter() - start)
    return best, result


@experiment(artifact=PAPER_ARTIFACT,
            defaults={"num_rows": 120_000, "repeats": 3})
def run(scale: float = 1.0,
        num_rows: int = 250_000,
        repeats: int = 5,
        seed: int = 13,
        verbose: bool = True) -> ExperimentResult:
    """Sweep scenario x mode and report speedups over the baseline mode.

    ``result.data`` is ``{"grid": grid, "speedups": speedups}``: ``grid``
    maps ``(scenario, mode)`` to ``{"seconds", "rows",
    "fused_rows_touched", "dict_predicates"}`` and ``speedups`` maps the
    same keys (mode != baseline) to the time ratio against baseline.
    """
    rows = max(int(round(num_rows * scale)), 1_000)

    databases = {False: build_events_database(rows, dict_encode=False,
                                              seed=seed),
                 True: build_events_database(rows, dict_encode=True,
                                             seed=seed)}

    grid: dict[tuple[str, str], dict] = {}
    for scenario, filters in SCENARIOS.items():
        plan = _scan_plan(scenario, filters)
        for mode, dict_encode in MODES.items():
            executor = Executor(databases[dict_encode])
            seconds, result = _measure(executor, plan, repeats)
            grid[(scenario, mode)] = {
                "seconds": seconds,
                "rows": int(result.table.column("row_count")[0]),
                "fused_rows_touched": result.fused_rows_touched,
                "dict_predicates": result.dict_predicates,
            }

    # Cross-check: dictionary codes may not change the selected row count.
    for (scenario, mode), cell in grid.items():
        baseline = grid[(scenario, "baseline")]
        if cell["rows"] != baseline["rows"]:
            raise AssertionError(
                f"compiled scan ({scenario}, mode={mode}) selected "
                f"{cell['rows']} rows, baseline selected {baseline['rows']}")

    speedups = {
        (scenario, mode): grid[(scenario, "baseline")]["seconds"] / cell["seconds"]
        for (scenario, mode), cell in grid.items()
        if mode != "baseline" and cell["seconds"] > 0
    }

    headers = ["scenario", "mode", "rows", "time", "speedup vs baseline"]
    table_rows = []
    for scenario in SCENARIOS:
        for mode in MODES:
            cell = grid[(scenario, mode)]
            speedup = speedups.get((scenario, mode))
            table_rows.append([
                scenario, mode, cell["rows"],
                f"{cell['seconds'] * 1e3:.3f} ms",
                f"{speedup:.2f}x" if speedup else "-",
            ])
    tables = [format_table(headers, table_rows,
                           title=f"Compiled scan kernels ({rows} rows, "
                                 f"best of {repeats})")]

    summary = {
        "num_rows": rows,
        "speedups": {f"{scenario}/{mode}": value
                     for (scenario, mode), value in speedups.items()},
    }
    outcome = ExperimentResult(
        name="bench_compiled_scan",
        artifact=PAPER_ARTIFACT,
        params={"scale": scale, "num_rows": num_rows,
                "repeats": repeats, "seed": seed},
        data={"grid": grid, "speedups": speedups},
        workloads={},
        summary=summary,
        tables=tables,
    )
    if verbose:
        print(outcome.render())
    return outcome
