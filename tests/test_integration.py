"""Integration tests: all algorithms agree on real workload queries end-to-end."""

import pytest

from repro.bench.harness import HarnessConfig, run_query, run_workload
from repro.bench.reporting import format_seconds, format_table
from repro.report import WorkloadResult
from repro.reopt import make_algorithm

#: Algorithms cheap enough to run on every sampled JOB query in CI.
FAST_ALGORITHMS = ("Default", "QuerySplit", "Reopt", "Pop", "IEF", "Perron19",
                   "USE", "Pessi.", "FS", "OptRange")


class TestJOBAgreement:
    @pytest.mark.parametrize("algorithm", FAST_ALGORITHMS)
    def test_algorithms_agree_with_default(self, imdb_db, job_sample, algorithm):
        for query in job_sample:
            expected = make_algorithm("Default", imdb_db).run(query)
            report = make_algorithm(algorithm, imdb_db).run(query)
            assert not report.timed_out, (algorithm, query.name)
            assert report.final_table.to_rows() == expected.final_table.to_rows(), (
                algorithm, query.name)

    def test_oracle_backed_algorithms_agree(self, imdb_db, job_sample):
        query = job_sample[2]
        expected = make_algorithm("Default", imdb_db).run(query)
        for algorithm in ("Optimal", "NeuroCard"):
            report = make_algorithm(algorithm, imdb_db).run(query)
            assert report.final_table.to_rows() == expected.final_table.to_rows()

    def test_index_configuration_does_not_change_results(self, imdb_db, job_sample):
        from repro.storage.database import IndexConfig

        pk_only = imdb_db.with_index_config(IndexConfig.PK_ONLY)
        query = job_sample[0]
        a = make_algorithm("QuerySplit", imdb_db).run(query)
        b = make_algorithm("QuerySplit", pk_only).run(query)
        assert a.final_table.to_rows() == b.final_table.to_rows()


class TestHarness:
    def test_run_query_and_workload(self, imdb_db, job_sample):
        config = HarnessConfig(timeout_seconds=30)
        report = run_query(imdb_db, job_sample[0], "QuerySplit", config)
        assert report.algorithm == "QuerySplit"
        result = run_workload(imdb_db, job_sample[:3], "QuerySplit", config)
        assert len(result.reports) == 3
        assert result.total_time > 0

    def test_estimator_factory_hook(self, imdb_db, job_sample):
        from repro.optimizer.cardinality import DefaultCardinalityEstimator
        from repro.optimizer.injection import NoisyCardinalityEstimator

        config = HarnessConfig(
            timeout_seconds=30,
            estimator_factory=lambda db: NoisyCardinalityEstimator(
                DefaultCardinalityEstimator(db), sigma=1.0, seed=3))
        report = run_query(imdb_db, job_sample[0], "QuerySplit", config)
        baseline = run_query(imdb_db, job_sample[0], "QuerySplit",
                             HarnessConfig(timeout_seconds=30))
        assert report.final_table.to_rows() == baseline.final_table.to_rows()

    def test_reporting_helpers(self, imdb_db, job_sample):
        config = HarnessConfig(timeout_seconds=30)
        results = {
            name: run_workload(imdb_db, job_sample[:2], name, config)
            for name in ("Default", "QuerySplit")
        }
        rows = [(name, format_seconds(result.total_time), result.timeouts)
                for name, result in results.items()]
        table = format_table(["alg", "time", "to"], rows, title="x")
        assert "QuerySplit" in table
        assert format_seconds(0.5).endswith("ms")
        assert format_seconds(12.3).endswith("s")

    def test_empty_workload(self, imdb_db):
        result = run_workload(imdb_db, [], "Default")
        assert isinstance(result, WorkloadResult)
        assert result.total_time == 0


class TestBehaviouralShape:
    """Coarse 'shape' assertions mirroring the paper's headline claims."""

    @pytest.fixture(scope="class")
    def shape_results(self, imdb_db, job_sample):
        config = HarnessConfig(timeout_seconds=30)
        return {
            name: run_workload(imdb_db, job_sample, name, config)
            for name in ("Default", "QuerySplit", "Pop", "Perron19")
        }

    def test_querysplit_not_slower_than_default(self, shape_results):
        assert (shape_results["QuerySplit"].total_time
                <= shape_results["Default"].total_time * 1.2)

    def test_querysplit_materializes_less_than_perron(self, shape_results):
        qs = sum(r.materializations for r in shape_results["QuerySplit"].reports)
        perron = sum(r.materializations for r in shape_results["Perron19"].reports)
        assert qs <= perron

    def test_no_timeouts_on_sample(self, shape_results):
        assert all(result.timeouts == 0 for result in shape_results.values())
