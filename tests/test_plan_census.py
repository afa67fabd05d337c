"""``tools/plan_census.py --algorithm``: plans with that registry row's optimizer."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "plan_census.py"


def _load():
    spec = importlib.util.spec_from_file_location("plan_census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rows_with_their_own_enumerator_plan_differently(capsys):
    census = _load()
    crcs = {}
    for algorithm in ("Default", "USE", "FS"):
        assert census.main(["--scale", "0.05", "--repeat", "1",
                            "--algorithm", algorithm]) == 0
        crcs[algorithm] = capsys.readouterr().out.split()[-1]
    assert len(set(crcs.values())) == 3, crcs


def test_learned_estimators_plan_differently(capsys):
    """Each simulated learned model draws its own noise: three rows, three
    plan sets."""
    census = _load()
    crcs = {}
    for algorithm in ("NeuroCard", "DeepDB", "MSCN"):
        assert census.main(["--scale", "0.05", "--repeat", "1",
                            "--algorithm", algorithm]) == 0
        crcs[algorithm] = capsys.readouterr().out.split()[-1]
    assert len(set(crcs.values())) == 3, crcs


def test_unknown_algorithm_rejected(capsys):
    with pytest.raises(SystemExit):
        _load().main(["--algorithm", "MagicSort"])
    assert "invalid choice" in capsys.readouterr().err
