"""Smoke test: the runner's output matches ``BENCHMARK.json`` name for name.

Runs every workload at ``--smoke`` size (scale / 3, one plain and one
traced pass, 100 served queries) and checks names, units and the
contract's limits; it asserts nothing about the timings themselves.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_smoke_output_matches_benchmark_json(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1",
         "--out", str(out)],
        stdout=subprocess.DEVNULL, timeout=170)
    assert done.returncode == 0
    document = json.loads(out.read_text())
    assert set(document["fingerprint"]) == {
        "cpus", "python", "numpy", "platform", "git_rev", "seed"}
    (results,) = document["sets"]

    workloads = [w["name"] for w in SPEC["workloads"]]
    assert sorted(results) == sorted(workloads)
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    names = workloads + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)

    for workload, result in results.items():
        assert result["failed"] == 0, result["problems"]
        assert result["attempted"] >= 1
        for group in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {name: m["unit"] for name, m in result[group].items()}
            assert got == declared, (workload, group)
            assert all(isinstance(m["value"], (int, float))
                       for m in result[group].values())
        assert all(m["value"] > 0 for m in result["end_to_end"].values())
