"""``tools/trace_diff.py``: counts must match, timings may not."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "tools" / "trace_diff.py"


def _load():
    spec = importlib.util.spec_from_file_location("trace_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _document(crc=7, temp_bytes=100, hit_rate=0.25, plan_s=0.5, failed=0,
              iterations=3.5):
    def metric(value, unit):
        return {"value": value, "unit": unit}

    return {"fingerprint": {}, "sets": [{"gen_served": {
        "workload": "gen_served", "attempted": 10, "failed": failed,
        "end_to_end": {"stream_s": metric(plan_s * 3, "s")},
        "per_layer": {
            "trace.plan_crc32": metric(crc, "count"),
            "optimizer.plan_s": metric(plan_s, "s"),
            "optimizer.plan_calls": metric(4.0, "count"),
            "executor.fused_rows_touched": metric(12.0, "count"),
            "storage.temp_register_s": metric(plan_s / 10, "s"),
            "storage.temp_bytes_peak": metric(temp_bytes, "bytes"),
            "serving.cache_hit_rate": metric(hit_rate, "ratio"),
            "core.iterations_per_query": metric(iterations, "count"),
        }}}]}


def test_timings_are_ignored():
    trace_diff = _load()
    assert trace_diff.diff(_document(), _document(plan_s=0.9)) == []


def test_every_count_that_differs_is_listed():
    trace_diff = _load()
    lines = trace_diff.diff(
        _document(), _document(crc=8, temp_bytes=90, hit_rate=0.5, failed=1))
    assert lines == [
        "0/gen_served/failed: 0 -> 1",
        "0/gen_served/serving.cache_hit_rate: 0.25 -> 0.5",
        "0/gen_served/storage.temp_bytes_peak: 100 -> 90",
        "0/gen_served/trace.plan_crc32: 7 -> 8",
    ]


def test_iterations_per_query_is_compared():
    trace_diff = _load()
    assert trace_diff.diff(_document(), _document(iterations=4.0)) == [
        "0/gen_served/core.iterations_per_query: 3.5 -> 4.0"]


def test_exit_status(tmp_path):
    paths = []
    for name, document in (("a", _document()), ("b", _document(plan_s=2.0)),
                           ("c", _document(crc=9))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(document))

    def run(a, b):
        return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                              capture_output=True, text=True)

    same = run(paths[0], paths[1])
    assert same.returncode == 0 and same.stdout.strip() == "all counts equal"
    differs = run(paths[0], paths[2])
    assert differs.returncode == 1
    assert differs.stdout.strip() == "0/gen_served/trace.plan_crc32: 7 -> 9"
