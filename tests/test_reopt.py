"""Tests for the re-optimization baselines, the registry, and the reports."""

import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.executor.executor import Executor
from repro.optimizer.cardinality import DefaultCardinalityEstimator
from repro.optimizer.optimizer import Optimizer
from repro.reopt import (
    ALGORITHM_NAMES,
    ALGORITHMS,
    NonAdaptiveBaseline,
    ReoptimizerBase,
    make_algorithm,
)
from repro.reopt.registry import every_join, most_uncertain_join, pipeline_breakers
from repro.report import ExecutionReport, IterationRecord, WorkloadResult
from tests.conftest import five_way_query


@pytest.fixture(scope="module")
def expected_rows(tiny_db):
    plan = Optimizer(tiny_db).plan(five_way_query())
    return Executor(tiny_db).execute(plan).table.to_rows()


class TestRegistry:
    def test_all_names_constructible(self, tiny_db):
        for name in ALGORITHM_NAMES:
            algorithm = make_algorithm(name, tiny_db)
            assert hasattr(algorithm, "run")
            assert algorithm.name == name or name in algorithm.name

    def test_unknown_name_rejected(self, tiny_db):
        with pytest.raises(ValueError):
            make_algorithm("MagicSort", tiny_db)


class TestAlgorithmTable:
    """The rows of ``ALGORITHMS`` are what each algorithm is."""

    @pytest.mark.parametrize("name, checkpoints, always_materialize, threshold", [
        ("Reopt", pipeline_breakers, False, 2.0),
        ("Pop", every_join, True, 2.0),
        ("IEF", most_uncertain_join, True, 1.0),
        ("Perron19", every_join, True, 32.0),
        ("OptRange", pipeline_breakers, False, 4.0),
    ])
    def test_reoptimizer_rows(self, tiny_db, name, checkpoints,
                              always_materialize, threshold):
        assert ALGORITHM_NAMES == (
            "QuerySplit", "Optimal", "Default", "Reopt", "Pop", "IEF",
            "Perron19", "USE", "Pessi.", "FS", "OptRange", "NeuroCard",
            "DeepDB", "MSCN")
        row = ALGORITHMS[name]
        assert (row.checkpoints, row.always_materialize,
                row.trigger_threshold) == (checkpoints, always_materialize,
                                           threshold)
        runner = make_algorithm(name, tiny_db)
        assert isinstance(runner, ReoptimizerBase)
        assert (runner.checkpoints, runner.always_materialize,
                runner.trigger_threshold) == (checkpoints, always_materialize,
                                              threshold)

    @pytest.mark.parametrize("name", [
        "Optimal", "Default", "USE", "Pessi.", "FS", "NeuroCard", "DeepDB",
        "MSCN"])
    def test_non_adaptive_rows_plan_once(self, tiny_db, name):
        assert ALGORITHMS[name].checkpoints is None
        runner = make_algorithm(name, tiny_db)
        assert type(runner) is NonAdaptiveBaseline
        assert (runner.oracle is not None) == ALGORITHMS[name].oracle


class TestEstimatorOverride:
    @pytest.mark.parametrize("name", [
        "Optimal", "USE", "Pessi.", "NeuroCard", "DeepDB", "MSCN"])
    def test_row_with_its_own_estimator_rejects_one(self, tiny_db, name):
        with pytest.raises(ValueError, match="own estimator"):
            make_algorithm(name, tiny_db,
                           estimator=DefaultCardinalityEstimator(tiny_db))

    @pytest.mark.parametrize("name", [
        "QuerySplit", "Default", "Reopt", "Pop", "IEF", "Perron19", "FS",
        "OptRange"])
    def test_row_without_one_takes_the_override(self, tiny_db, tiny_query,
                                                expected_rows, name):
        estimator = DefaultCardinalityEstimator(tiny_db)
        runner = make_algorithm(name, tiny_db, estimator=estimator)
        assert runner.optimizer.estimator is estimator
        assert runner.optimizer.config == ALGORITHMS[name].config
        assert runner.run(tiny_query).final_table.to_rows() == expected_rows


class TestBaselineCorrectness:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_every_algorithm_same_answer(self, name, tiny_db, tiny_query,
                                         expected_rows):
        """All 14 algorithms must return the same result for the 5-way join."""
        report = make_algorithm(name, tiny_db).run(tiny_query)
        assert not report.timed_out
        assert report.final_table.to_rows() == expected_rows

    def test_temp_tables_dropped_after_each_query(self, tiny_db, tiny_query):
        for name in ("QuerySplit", "Pop", "Perron19", "IEF"):
            make_algorithm(name, tiny_db).run(tiny_query)
            assert tiny_db.temp_table_names == []


class TestBaselineBehaviour:
    def test_default_never_materializes(self, tiny_db, tiny_query):
        report = make_algorithm("Default", tiny_db).run(tiny_query)
        assert report.materializations == 0
        assert report.num_iterations == 1

    def test_optimal_uses_oracle(self, tiny_db, tiny_query):
        baseline = make_algorithm("Optimal", tiny_db)
        report = baseline.run(tiny_query)
        assert report.materializations == 0
        # The plan was made from oracle counts, and the run dropped the memo.
        assert baseline.oracle.counted > 0
        assert baseline.oracle.memo_size == 0
        assert report.final_rows == 1

    def test_pop_materializes_every_join(self, tiny_db, tiny_query):
        report = make_algorithm("Pop", tiny_db).run(tiny_query)
        # A 5-way join has 4 joins; the final one is never materialized.
        assert report.materializations == 3

    def test_perron_materializes(self, tiny_db, tiny_query):
        report = make_algorithm("Perron19", tiny_db).run(tiny_query)
        assert report.materializations >= 1

    def test_reopt_materializes_only_on_trigger(self, tiny_db, tiny_query):
        report = make_algorithm("Reopt", tiny_db).run(tiny_query)
        assert report.materializations <= 3
        assert all(it.materialized == it.replanned or not it.materialized
                   for it in report.iterations)

    def test_reopt_points_are_pipeline_breakers(self, tiny_db):
        plan = Optimizer(tiny_db).plan(five_way_query())
        for node in pipeline_breakers(plan, tiny_db.schema):
            assert node.is_pipeline_breaker

    def test_ief_selects_single_uncertain_point(self, tiny_db):
        plan = Optimizer(tiny_db).plan(five_way_query())
        points = most_uncertain_join(plan, tiny_db.schema)
        assert len(points) <= 1

    def test_statistics_toggle_respected(self, tiny_db, tiny_query):
        report = make_algorithm("Perron19", tiny_db,
                                collect_statistics=False).run(tiny_query)
        assert report.stats_collections == 0

    def test_join_overflow_reported_as_timeout(self):
        """A JoinOverflowError inside execution surfaces as a timed-out run."""
        import numpy as np

        from repro.catalog.schema import Column, Schema, TableSchema
        from repro.catalog.types import DataType
        from repro.plan.expressions import ColumnRef, JoinPredicate
        from repro.plan.logical import Query, RelationRef, SPJQuery
        from repro.storage.database import Database, IndexConfig
        from repro.storage.table import DataTable

        schema = Schema([
            TableSchema("a", [Column("id", DataType.INT),
                              Column("key", DataType.INT)], primary_key="id"),
            TableSchema("b", [Column("id", DataType.INT),
                              Column("key", DataType.INT)], primary_key="id"),
        ])
        db = Database(schema, index_config=IndexConfig.NONE)
        # 7000 x 7000 rows with a constant join key: 49M matches, above the
        # 40M join-result cap, so the equi-join kernel aborts the query.
        n = 7000
        db.load_table(DataTable("a", {"id": np.arange(n),
                                      "key": np.zeros(n, dtype=np.int64)}))
        db.load_table(DataTable("b", {"id": np.arange(n),
                                      "key": np.zeros(n, dtype=np.int64)}))
        query = Query.from_spj(SPJQuery(
            name="overflow",
            relations=(RelationRef.base("a", "a"), RelationRef.base("b", "b")),
            join_predicates=(JoinPredicate(ColumnRef("a", "key"),
                                           ColumnRef("b", "key")),),
        ))
        report = make_algorithm("Default", db, timeout_seconds=5.0).run(query)
        assert report.timed_out
        assert report.total_time >= 5.0
        assert db.temp_table_names == []

    def test_timeout_flag(self, tiny_db, tiny_query):
        report = make_algorithm("Pop", tiny_db, timeout_seconds=0.0).run(tiny_query)
        assert report.timed_out
        assert report.total_time >= 0.0


class _SleepOnceExecutor(Executor):
    """Sleeps ``seconds`` after its first ``execute`` returns."""

    def __init__(self, database, seconds):
        super().__init__(database)
        self.seconds = seconds

    def execute(self, *args, **kwargs):
        result = super().execute(*args, **kwargs)
        if self.seconds:
            time.sleep(self.seconds)
            self.seconds = 0.0
        return result


class TestMidQueryTimeout:
    """A deadline that passes after the first iteration, with a temporary
    registered, unwinds cleanly and leaves the runner reusable.  The budget
    leaves the second, untimed-out run (~10 ms) headroom under coverage."""

    TIMEOUT = 0.2

    @pytest.mark.parametrize("name", ["QuerySplit", "Pop", "IEF", "Perron19"])
    def test_timeout_after_first_iteration(self, name, tiny_db, tiny_query,
                                           expected_rows):
        runner = make_algorithm(name, tiny_db, timeout_seconds=self.TIMEOUT)
        runner.executor = _SleepOnceExecutor(tiny_db, self.TIMEOUT + 0.05)
        report = runner.run(tiny_query)
        assert report.timed_out
        [iteration] = report.iterations
        assert iteration.materialized
        assert report.total_time >= self.TIMEOUT
        assert report.final_table is None
        assert tiny_db.temp_table_names == []

        again = runner.run(tiny_query)
        assert not again.timed_out
        # At least two iterations: the first run timed out mid-query.
        assert again.num_iterations >= 2
        assert again.final_table.to_rows() == expected_rows
        assert tiny_db.temp_table_names == []


@pytest.mark.parametrize("module", [
    "repro", "repro.core", "repro.core.splitter", "repro.reopt",
    "repro.reopt.base", "repro.reopt.registry", "repro.serving",
])
def test_module_imports_first_in_a_fresh_process(module):
    """QuerySplit's driver builds on ``repro.reopt.base``, which imports
    ``repro.core.nonspj``; whichever module a program imports first, no
    import cycle may reach a partly initialized one.  In-process imports
    cannot see a cycle, since every module is already cached."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    subprocess.run([sys.executable, "-c", f"import {module}"],
                   env=dict(os.environ, PYTHONPATH=src), check=True,
                   capture_output=True, timeout=120)


class TestReports:
    def _record(self, **kwargs):
        defaults = dict(index=0, description="x", aliases=frozenset({"a"}),
                        result_rows=10, wall_time=0.5, memory_bytes=100,
                        materialized=True, replanned=False)
        defaults.update(kwargs)
        return IterationRecord(**defaults)

    def test_materialization_metrics(self):
        report = ExecutionReport(query_name="q", algorithm="A", total_time=1.0,
                                 iterations=[self._record(),
                                             self._record(index=1, materialized=False)])
        assert report.num_iterations == 2
        assert report.materializations == 1
        assert report.materialized_bytes == 100
        assert report.max_intermediate_rows == 10

    def test_empty_report_metrics(self):
        report = ExecutionReport(query_name="q", algorithm="A", total_time=0.0)
        assert report.max_intermediate_rows == 0
        assert report.timeline() == []

    def test_workload_result_aggregation(self):
        result = WorkloadResult(algorithm="A", reports=[
            ExecutionReport(query_name="q1", algorithm="A", total_time=1.0),
            ExecutionReport(query_name="q2", algorithm="A", total_time=2.0,
                            timed_out=True),
        ])
        assert result.total_time == 3.0
        assert result.timeouts == 1
        assert result.report_for("q1").query_name == "q1"
        with pytest.raises(KeyError):
            result.report_for("zz")


class TestTempStatistics:
    """Temp ANALYZE covers exactly the columns the next plan can ask about."""

    def test_stats_columns_reported_per_iteration(self, tiny_db, tiny_query):
        for name in ("Pop", "QuerySplit"):
            report = make_algorithm(name, tiny_db).run(tiny_query)
            analyzed = [it.stats_columns for it in report.iterations]
            assert report.stats_columns == sum(analyzed) > 0
            assert all(count == 0 for it, count in zip(report.iterations, analyzed)
                       if not it.materialized)
            off = make_algorithm(name, tiny_db, collect_statistics=False).run(tiny_query)
            assert off.stats_columns == 0 and off.materializations > 0

    def test_surviving_multi_alias_filter_keeps_its_column_analyzed(self, tiny_db):
        from repro.plan.expressions import ColumnRef
        from repro.plan.logical import RelationRef, SPJQuery
        from tests.test_plan import _ColumnLess

        base = five_way_query()
        year_below_id = _ColumnLess(ColumnRef("t", "year"), ColumnRef("n", "id"))
        spj = SPJQuery(
            name="cross-filter", relations=base.relations,
            filters=base.filters + (year_below_id,),
            join_predicates=base.join_predicates)
        covered = frozenset({"t", "mk"})
        sub = SPJQuery(name="sub", relations=base.relations[:2],
                       filters=base.filters[:1],
                       join_predicates=base.join_predicates[:1])
        algorithm = make_algorithm("Reopt", tiny_db)
        read_after = spj.columns_read_after(covered)
        plan = replace(algorithm.optimizer.plan(sub),
                       output_columns=algorithm._unit_columns(spj, covered, read_after))
        report = ExecutionReport(query_name="sub", algorithm="Reopt", total_time=0.0)
        try:
            result, temp = algorithm._step(plan, report, "sub", read_after=read_after,
                                           decide=lambda rows: (True, False))
            stats = tiny_db.stats(temp.alias)
        finally:
            tiny_db.drop_temp_tables()
        assert report.stats_collections == 1
        assert stats.num_rows == result.table.num_rows
        assert list(stats.columns) == ["mk.keyword_id", "t.id", "t.year"]
        assert stats.columns["t.year"].histogram is not None
        # The query outputs nothing, so the temporary holds what is read
        # after it: the applied t-mk join's ``mk.movie_id`` is not kept.
        assert result.table.column_names == list(stats.columns)
        kept = spj.substitute(RelationRef.temp("__temp_1", covered))
        assert year_below_id in kept.filters

    @pytest.mark.parametrize("name", ["QuerySplit", "Reopt", "Pop", "IEF",
                                      "Perron19", "OptRange"])
    def test_temporaries_hold_outputs_then_columns_read_after(
            self, imdb_db, monkeypatch, name):
        """One column rule for every re-optimizer: a temporary holds the
        query's output columns within its aliases, then the columns a later
        plan reads -- which are exactly the ones ANALYZE ran on."""
        from repro.storage.database import Database
        from repro.workloads.job_queries import job_queries
        from tests.test_optimizer import JOB_SLICE

        registered = []
        register_temp = Database.register_temp

        def recording(self, table, stats, aliases):
            registered.append((list(table.columns), list(stats.columns), aliases))
            return register_temp(self, table, stats, aliases)

        monkeypatch.setattr(Database, "register_temp", recording)
        temps = 0
        for query in job_queries():
            if query.name not in JOB_SLICE:
                continue
            registered.clear()
            report = make_algorithm(name, imdb_db).run(query)
            assert not report.timed_out, (name, query.name)
            for columns, analyzed, aliases in registered:
                within = [ref.qualified for ref in query.spj.output_columns()
                          if ref.alias in aliases]
                assert columns == list(dict.fromkeys(within + analyzed)), (
                    name, query.name, sorted(aliases))
            temps += len(registered)
        assert temps > 0

    def test_temp_nothing_can_ask_about_still_registers_with_row_count(
            self, tiny_db, monkeypatch):
        """``(t JOIN mk) x k``: no predicate reaches into the materialized
        join, so no column is analyzed -- but the temporary is registered
        with its row count and the collection is counted."""
        from repro.plan.expressions import ColumnRef, Comparison, JoinPredicate
        from repro.plan.logical import AggregateSpec, Query, RelationRef, SPJQuery
        from repro.storage.database import Database

        spj = SPJQuery(
            name="cross",
            relations=tuple(RelationRef.base(a, a) for a in ("t", "mk", "k")),
            filters=(Comparison(ColumnRef("t", "year"), ">", 2015),),
            join_predicates=(JoinPredicate(ColumnRef("mk", "movie_id"),
                                           ColumnRef("t", "id")),),
            aggregates=(AggregateSpec("count", None, "n"),))
        registered = []
        register_temp = Database.register_temp

        def recording(self, table, stats, aliases):
            registered.append((table.num_rows, stats, aliases))
            return register_temp(self, table, stats, aliases)

        monkeypatch.setattr(Database, "register_temp", recording)
        report = make_algorithm("Pop", tiny_db).run(Query.from_spj(spj))
        (rows, stats, aliases), = registered
        assert aliases == {"t", "mk"} and rows > 0
        assert stats.num_rows == rows and stats.columns == {}
        assert report.stats_collections == 1 and report.stats_columns == 0
        assert report.iterations[0].stats_collected
        assert report.final_table.to_rows() == [(rows * tiny_db.table("k").num_rows,)]


_HASH_SEED_PROBE = """
import json
from repro.bench.harness import HarnessConfig, run_query
from repro.optimizer.optimizer import Optimizer
from repro.storage.database import Database
from repro.workloads.imdb import build_imdb_database
from repro.workloads.job_queries import job_queries

plans, temps = [], []
plan, register_temp = Optimizer.plan, Database.register_temp

def recording_plan(self, query):
    made = plan(self, query)
    plans.append(made.explain())
    return made

def recording_register(self, table, stats, aliases):
    temps.append([list(table.columns), list(stats.columns)])
    return register_temp(self, table, stats, aliases)

Optimizer.plan, Database.register_temp = recording_plan, recording_register
query, = [q for q in job_queries(families=[10]) if q.name == "10a"]
report = run_query(build_imdb_database(scale=0.2), query, "Pop", HarnessConfig())
print(json.dumps({"plans": plans, "temps": temps, "iterations": [
    [it.description, it.result_rows, it.materialized, it.replanned,
     it.stats_columns] for it in report.iterations]}))
"""


def test_pop_trace_does_not_depend_on_the_hash_seed():
    """JOB 10a under Pop materializes temps of more than 10 000 rows, whose
    columns are *sampled* one ``rng.choice`` draw after another: a temp
    column order (or ANALYZE column order) that followed ``PYTHONHASHSEED``
    gave the re-planned ``ci JOIN chn`` 28245.5 rows under seed 0 and
    28609.7 under seed 1."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _HASH_SEED_PROBE], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        runs.append(json.loads(out.stdout))
    assert len(runs[0]["plans"]) > 1 and runs[0]["temps"]
    assert runs[0]["iterations"] == runs[1]["iterations"]
    assert runs[0]["plans"] == runs[1]["plans"]
    assert runs[0]["temps"] == runs[1]["temps"]
