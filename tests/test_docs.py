"""Docs-consistency tests: referenced documents exist; examples stay runnable.

The same check runs as a dedicated CI step (see .github/workflows/ci.yml);
running it in tier-1 too means a dangling documentation pointer fails
locally before a PR is even opened.
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_markdown_references_resolve():
    check_docs = _load_check_docs()
    missing = check_docs.find_missing_references(REPO_ROOT)
    assert missing == [], (
        "dangling Markdown references: "
        + ", ".join(f"{path.name} -> {ref}" for path, ref in missing))


def test_registered_experiments_documented_in_experiments_md():
    check_docs = _load_check_docs()
    undocumented = check_docs.find_undocumented_experiments(REPO_ROOT)
    assert undocumented == [], (
        "experiments registered but missing from EXPERIMENTS.md: "
        + ", ".join(undocumented))


def test_documented_run_commands_name_registered_experiments():
    check_docs = _load_check_docs()
    stale = check_docs.find_stale_run_commands(REPO_ROOT)
    assert stale == [], (
        "'repro.cli run' names an unregistered experiment: "
        + ", ".join(f"{doc} -> {name}" for doc, name in stale))


def test_stale_run_command_is_reported(tmp_path):
    """A deleted experiment named in a run command fails the check."""
    check_docs = _load_check_docs()
    (tmp_path / "EXPERIMENTS.md").write_text(
        "python -m repro.cli run figure11_job --scale 0.1\n"
        "| old | `python -m repro.cli run bench_gone` |\n")
    (tmp_path / "README.md").write_text(
        "python -m repro.cli run --all --jobs 4\n"
        "python -m repro.cli run figure11_job bench_gone\n")
    stale = check_docs.find_stale_run_commands(tmp_path,
                                               known={"figure11_job"})
    assert stale == [("EXPERIMENTS.md", "bench_gone"),
                     ("README.md", "bench_gone")]


def test_command_line_check_fails_on_a_stale_run_command(tmp_path, capsys):
    """The entry point CI runs exits non-zero and names the stale line."""
    check_docs = _load_check_docs()
    (tmp_path / "README.md").write_text(
        "python -m repro.cli run bench_gone\n")
    assert check_docs.main(["check_docs.py", str(tmp_path)]) == 1
    assert "README.md: bench_gone" in capsys.readouterr().out


def test_core_documents_exist():
    for name in ("README.md", "ARCHITECTURE.md", "EXPERIMENTS.md", "ROADMAP.md"):
        assert (REPO_ROOT / name).is_file(), f"{name} is missing"


def test_examples_are_importable():
    """Every example script must at least compile (CI runs quickstart fully)."""
    for script in sorted((REPO_ROOT / "examples").glob("*.py")):
        source = script.read_text(encoding="utf-8")
        compile(source, str(script), "exec")
