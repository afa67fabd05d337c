"""``tools/call_census.py``: exact call counts that repeat run for run."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "call_census.py"


def _load():
    spec = importlib.util.spec_from_file_location("call_census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_agree(capsys, monkeypatch):
    """The census pins the hash seed in its child, so two runs print the
    same counts even when the caller's seed differs."""
    census = _load()
    outputs = []
    for seed in ("1", "2"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        assert census.main(["--stream", "gen", "--top", "5"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert "PYTHONHASHSEED 0" in lines[0]
    layers = dict(line.split() for line in lines[2:] if len(line.split()) == 2)
    assert {"core", "optimizer", "executor", "all"} <= layers.keys()
    assert float(layers["all"]) > float(layers["core"]) > 0
