"""Smoke tests for every experiment module (tiny scale, restricted queries)."""

import pytest

from repro.core.qsa import QSAStrategy
from repro.core.ssa import CostFunction
from repro.experiments import (
    figure10_robustness,
    figure11_job,
    figure12_tpch,
    figure13_dsb_spj,
    figure14_dsb_nonspj,
    figure15_statistics,
    figure_sqlgen_scaling,
    table1_similarity,
    table3_policies,
    table4_materialization,
    table5_existing_costfn,
    table6_categories,
)
from repro.optimizer.oracle import TrueCardinalityOracle
from repro.reopt.registry import make_algorithm
from repro.workloads.job_queries import job_queries

SCALE = 0.15
FAMILIES = [2, 6, 9]


def test_table1_similarity_ratios_sum_to_one():
    ratios = table1_similarity.run(scale=SCALE, families=FAMILIES, verbose=False).data
    assert set(ratios) == {"0", "1", "2", ">2"}
    assert sum(ratios.values()) == pytest.approx(1.0)


def test_table3_policy_grid():
    results = table3_policies.run(
        scale=SCALE, families=[6],
        qsa_strategies=(QSAStrategy.FK_CENTER, QSAStrategy.MIN_SUBQUERY),
        cost_functions=(CostFunction.PHI1, CostFunction.PHI4),
        verbose=False).data
    assert len(results) == 4
    assert all(result.total_time >= 0 for result in results.values())
    best = table3_policies.best_combination(results)
    assert best in results


def test_figure10_robustness_sweep():
    results = figure10_robustness.run(
        scale=SCALE, families=[6], sigmas=(0.5, 4.0),
        policies=((QSAStrategy.FK_CENTER, CostFunction.PHI4),),
        verbose=False).data
    assert len(results) == 2


def test_figure10_with_true_cardinalities_matches_default(imdb_db,
                                                           monkeypatch):
    """With ``use_oracle`` the oracle counts sub-joins over QuerySplit's
    temporaries (one relation covering several aliases); every policy still
    returns Default's rows."""
    temp_probes = []
    true_rows = TrueCardinalityOracle.true_rows

    def recording(oracle, relations, *args, **kwargs):
        temp_probes.extend(relation for relation in relations
                           if len(relation.covered_aliases) > 1)
        return true_rows(oracle, relations, *args, **kwargs)

    monkeypatch.setattr(TrueCardinalityOracle, "true_rows", recording)
    families = [6, 17]
    results = figure10_robustness.run(
        scale=0.25, families=families, sigmas=(1.0,), use_oracle=True,
        verbose=False).data
    assert temp_probes
    expected = {query.name: make_algorithm("Default", imdb_db).run(query)
                .final_table.to_rows()
                for query in job_queries(families=families)}
    assert len(results) == len(figure10_robustness.DEFAULT_POLICIES)
    for policy, result in results.items():
        assert len(result.reports) == len(expected)
        for report in result.reports:
            assert not report.timed_out, (policy, report.query_name)
            assert report.final_table.to_rows() == expected[report.query_name], (
                policy, report.query_name)


def test_figure11_job_comparison():
    results = figure11_job.run(
        scale=SCALE, families=FAMILIES,
        algorithms=("QuerySplit", "Default", "Pop"),
        verbose=False).data
    assert set(results) == {"pk", "pk+fk"}
    for per_algorithm in results.values():
        assert set(per_algorithm) == {"QuerySplit", "Default", "Pop"}


def test_table4_materialization_metrics():
    metrics = table4_materialization.run(
        scale=SCALE, families=FAMILIES,
        algorithms=("QuerySplit", "Pop"), verbose=False).data
    assert metrics["Pop"]["avg_materializations_per_query"] >= \
        metrics["QuerySplit"]["avg_materializations_per_query"] - 1e-9
    assert metrics["QuerySplit"]["avg_mem_per_subquery_mb"] >= 0


def test_figure12_tpch():
    results = figure12_tpch.run(
        scale=0.1, algorithms=("QuerySplit", "Default"),
        families=[1, 3, 5, 10], verbose=False).data
    for per_algorithm in results.values():
        assert per_algorithm["QuerySplit"].timeouts == 0


def test_figure13_and_14_dsb():
    spj = figure13_dsb_spj.run(scale=0.1, algorithms=("QuerySplit", "Default"),
                               verbose=False).data
    nonspj = figure14_dsb_nonspj.run(scale=0.1, algorithms=("QuerySplit", "Default"),
                                     verbose=False).data
    assert set(spj) == set(nonspj) == {"pk", "pk+fk"}


def test_figure15_statistics_toggle():
    results = figure15_statistics.run(
        scale=SCALE, families=[6], algorithms=("QuerySplit", "Perron19"),
        verbose=False).data
    assert ("QuerySplit", True) in results and ("QuerySplit", False) in results


def test_figure15_warms_up_and_alternates_the_first_setting(monkeypatch):
    """Each policy runs once untimed, under the setting timed second, and
    "with statistics" and "row count only" take turns going first."""
    from repro.report import WorkloadResult

    calls = []

    def run_workload(database, queries, algorithm, config):
        calls.append((algorithm, config.collect_statistics))
        return WorkloadResult(algorithm)

    monkeypatch.setattr(figure15_statistics, "run_workload", run_workload)
    algorithms = ("QuerySplit", "Reopt", "Pop")
    results = figure15_statistics.run(scale=SCALE, families=[6],
                                      algorithms=algorithms, verbose=False).data
    assert calls == [("QuerySplit", False), ("QuerySplit", True),
                     ("QuerySplit", False),
                     ("Reopt", True), ("Reopt", False), ("Reopt", True),
                     ("Pop", False), ("Pop", True), ("Pop", False)]
    assert list(results) == [(a, c) for a in algorithms for c in (True, False)]


def test_table5_existing_costfn():
    results = table5_existing_costfn.run(
        scale=SCALE, families=[6], algorithms=("Pop",),
        cost_functions=(CostFunction.PHI4,), verbose=False).data
    assert ("Pop", "original") in results
    assert ("Pop", "phi4") in results


def test_figure_sqlgen_scaling():
    outcome = figure_sqlgen_scaling.run(
        scale=0.1, stream_lengths=(5,), join_depths=(2, 3),
        algorithms=("QuerySplit", "Default"), timeout_seconds=10.0,
        verbose=False).data
    cells, robustness = outcome["cells"], outcome["robustness"]
    assert set(cells) == {(2, 5), (3, 5)}
    for cell in cells.values():
        assert set(cell["results"]) == {"QuerySplit", "Default"}
        assert 0.0 <= cell["cache_hit_rate"] <= 1.0
    assert set(robustness) == {"QuerySplit", "Default"}
    # Robustness is the worst per-cell slowdown vs. that cell's best policy.
    for algorithm in ("QuerySplit", "Default"):
        expected = max(
            cell["results"][algorithm].total_time
            / min(r.total_time for r in cell["results"].values())
            for cell in cells.values())
        assert robustness[algorithm] == pytest.approx(max(1.0, expected))


def test_table6_categories():
    outcome = table6_categories.run(scale=SCALE, families=FAMILIES,
                                    alternatives=("Pop", "Perron19"),
                                    verbose=False).data
    freq = outcome.frequency()
    assert sum(freq.values()) == len(outcome.categories)
    assert set(freq) == set(table6_categories.CATEGORIES)
    effects = outcome.average_effect()
    assert set(effects) == set(table6_categories.CATEGORIES)
    # Timelines exist for every classified query and algorithm.
    for query, timelines in outcome.timelines.items():
        assert "QuerySplit" in timelines
