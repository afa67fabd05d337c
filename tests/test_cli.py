"""Registry + CLI runner tests: completeness, artifacts, resume, parallelism."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.bench import artifacts
from repro.experiments import registry
from repro.report import ExecutionReport, WorkloadResult

EXPECTED_EXPERIMENTS = {
    "table1_similarity", "table3_policies", "figure10_robustness",
    "figure11_job", "table4_materialization", "figure12_tpch",
    "figure13_dsb_spj", "figure14_dsb_nonspj", "figure15_statistics",
    "table5_existing_costfn", "table6_categories", "figure_sqlgen_scaling",
    "bench_serving",
}


def test_registry_is_complete():
    specs = registry.load_all()
    assert set(specs) == EXPECTED_EXPERIMENTS
    for name, spec in specs.items():
        assert spec.name == name
        assert spec.artifact, f"{name} has no paper-artifact label"
        assert spec.module == f"repro.experiments.{name}"
        assert callable(spec.runner)


def test_every_module_docstring_states_its_artifact():
    import importlib
    for name, spec in registry.load_all().items():
        module = importlib.import_module(spec.module)
        doc = module.__doc__ or ""
        # "Figure 11 (...)" must be introduced by a docstring mentioning
        # "Figure 11"; the beyond-the-paper module says so explicitly.
        head = " ".join(spec.artifact.split()[:2]).rstrip(":(")
        if spec.artifact.startswith(("Table", "Figure")):
            assert head in doc, f"{name} docstring does not mention {head!r}"
        else:
            assert "beyond the paper" in doc or "paper" in doc


def test_registered_shard_params_exist_in_signatures():
    from inspect import signature
    for name, spec in registry.load_all().items():
        if spec.shard_param is not None:
            params = signature(spec.runner).parameters
            assert spec.shard_param in params, name
            assert spec.shard_universe, f"{name} shards without a universe"


def _fake_result() -> artifacts.ExperimentResult:
    workload = WorkloadResult(algorithm="QuerySplit", reports=[
        ExecutionReport(query_name="q1", algorithm="QuerySplit",
                        total_time=0.25),
        ExecutionReport(query_name="q2", algorithm="QuerySplit",
                        total_time=0.5, timed_out=True),
    ])
    workloads = {"pk/QuerySplit": workload}
    summary = artifacts.base_summary(workloads)
    return artifacts.ExperimentResult(
        name="fake_experiment", artifact="Table 0 (made up)",
        params={"scale": 0.1, "families": [2, 6]},
        data={"anything": True}, workloads=workloads, summary=summary,
        tables=["Table 0\ncol\n---\nval"])


def test_artifact_schema_roundtrip(tmp_path):
    result = _fake_result()
    artifact = artifacts.build_artifact(
        result, started_at=artifacts.utc_now(), finished_at=artifacts.utc_now(),
        wall_clock_seconds=1.5, rev="deadbeef")
    assert artifacts.validate_artifact(artifact) == []

    path = tmp_path / "fake_experiment.json"
    artifacts.write_artifact(path, artifact)
    loaded = artifacts.load_artifact(path)
    assert loaded == json.loads(json.dumps(artifact))  # JSON-stable
    assert artifacts.validate_artifact(loaded) == []
    assert loaded["experiment"] == "fake_experiment"
    assert loaded["git_rev"] == "deadbeef"
    assert loaded["params"] == {"scale": 0.1, "families": [2, 6]}
    assert len(loaded["queries"]) == 2
    record = loaded["queries"][0]
    for field in artifacts.QUERY_RECORD_FIELDS:
        assert field in record
    per_key = loaded["summary"]["per_key"]["pk/QuerySplit"]
    assert per_key["queries"] == 2
    assert per_key["timeouts"] == 1
    assert per_key["total_time"] == pytest.approx(0.75)


def test_validate_artifact_flags_violations():
    assert artifacts.validate_artifact([]) != []
    artifact = artifacts.build_artifact(
        _fake_result(), started_at="t0", finished_at="t1",
        wall_clock_seconds=0.0, rev="r")
    broken = dict(artifact)
    del broken["queries"]
    assert any("queries" in e for e in artifacts.validate_artifact(broken))
    stale = dict(artifact, schema_version=artifacts.SCHEMA_VERSION + 1)
    assert any("schema_version" in e for e in artifacts.validate_artifact(stale))


def test_cli_smoke_run_writes_valid_artifact(tmp_path, capsys):
    results_dir = tmp_path / "results"
    summary = tmp_path / "BENCH_summary.json"
    code = cli.main([
        "run", "table1_similarity", "--scale", "0.1", "--families", "2,6",
        "--results-dir", str(results_dir), "--summary", str(summary)])
    assert code == 0
    artifact = artifacts.load_artifact(results_dir / "table1_similarity.json")
    assert artifacts.validate_artifact(artifact) == []
    assert artifact["experiment"] == "table1_similarity"
    assert artifact["params"]["scale"] == 0.1
    assert artifact["params"]["families"] == [2, 6]
    assert artifact["summary"]["ratios"]
    assert artifact["git_rev"]
    assert artifact["tables"]

    merged = artifacts.load_artifact(summary)
    assert "table1_similarity" in merged["experiments"]
    out = capsys.readouterr().out
    assert "written" in out


def test_resume_skips_completed_artifacts(tmp_path):
    kwargs = dict(results_dir=tmp_path, summary_path=tmp_path / "s.json",
                  overrides={"scale": 0.1, "families": [2, 6]})
    first = cli.run_experiments(["table1_similarity"], **kwargs)
    assert [s.status for s in first] == ["written"]
    second = cli.run_experiments(["table1_similarity"], **kwargs)
    assert [s.status for s in second] == ["skipped"]
    # Changing a pinned knob invalidates the artifact ...
    third = cli.run_experiments(
        ["table1_similarity"], results_dir=tmp_path,
        summary_path=tmp_path / "s.json",
        overrides={"scale": 0.1, "families": [2]})
    assert [s.status for s in third] == ["written"]
    # ... and --force always re-runs.
    fourth = cli.run_experiments(
        ["table1_similarity"], force=True, results_dir=tmp_path,
        summary_path=tmp_path / "s.json",
        overrides={"scale": 0.1, "families": [2]})
    assert [s.status for s in fourth] == ["written"]


def test_parallel_sharded_run_merges_families(tmp_path):
    overrides = {"scale": 0.1, "families": [6, 2],
                 "algorithms": ["QuerySplit", "Default"]}
    statuses = cli.run_experiments(
        ["figure11_job"], jobs=2, results_dir=tmp_path,
        summary_path=tmp_path / "s.json", overrides=overrides)
    assert [s.status for s in statuses] == ["written"]
    assert statuses[0].shards == 2

    artifact = artifacts.load_artifact(tmp_path / "figure11_job.json")
    assert artifacts.validate_artifact(artifact) == []
    assert artifact["params"]["families"] == [2, 6]  # sorted union of shards
    assert artifact["summary"]["sharded"] is True
    keys = {record["key"] for record in artifact["queries"]}
    assert keys == {"pk/QuerySplit", "pk/Default",
                    "pk+fk/QuerySplit", "pk+fk/Default"}
    families_seen = {record["query"][0] for record in artifact["queries"]}
    assert families_seen == {"2", "6"}

    # The same invocation is skipped on resume (order-insensitive families).
    again = cli.run_experiments(
        ["figure11_job"], jobs=2, results_dir=tmp_path,
        summary_path=tmp_path / "s.json", overrides=overrides)
    assert [s.status for s in again] == ["skipped"]


def test_report_merges_existing_artifacts(tmp_path, capsys):
    cli.run_experiments(["table1_similarity"], results_dir=tmp_path,
                        summary_path=None,
                        overrides={"scale": 0.1, "families": [2]})
    code = cli.main(["report", "--results-dir", str(tmp_path),
                     "--summary", str(tmp_path / "BENCH_summary.json")])
    assert code == 0
    summary = artifacts.load_artifact(tmp_path / "BENCH_summary.json")
    assert summary["schema_version"] == artifacts.SCHEMA_VERSION
    entry = summary["experiments"]["table1_similarity"]
    assert entry["artifact"].startswith("Table 1")
    assert "per_key" in entry
