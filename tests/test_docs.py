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


def test_documented_code_samples_import():
    check_docs = _load_check_docs()
    broken = check_docs.find_broken_imports(REPO_ROOT)
    assert broken == [], (
        "Markdown code samples that do not import: "
        + ", ".join(f"{doc} -> {problem}" for doc, problem in broken))


def _python_block(*lines: str) -> str:
    return "```python\n" + "\n".join(lines) + "\n```\n"


def test_code_sample_with_a_missing_name_is_reported(tmp_path):
    """A name the module lacks fails the check; the names beside it pass."""
    check_docs = _load_check_docs()
    (tmp_path / "README.md").write_text(
        "Load once:\n\n" + _python_block(
            "from repro.storage.database import Database, RemovedName",
            "db = Database(schema)"))
    assert check_docs.find_broken_imports(tmp_path) == [
        ("README.md", "repro.storage.database has no 'RemovedName'")]


def test_code_sample_with_a_missing_module_is_reported(tmp_path):
    check_docs = _load_check_docs()
    (tmp_path / "ARCHITECTURE.md").write_text(
        _python_block("from repro.no_such_package import Anything"))
    [(document, problem)] = check_docs.find_broken_imports(tmp_path)
    assert document == "ARCHITECTURE.md"
    assert problem.startswith("repro.no_such_package: ")


def test_only_python_fences_are_checked(tmp_path):
    """Parenthesized lists, aliases and submodules import; lines in other
    fences or in prose are not code samples."""
    check_docs = _load_check_docs()
    (tmp_path / "README.md").write_text(
        _python_block("from repro.workloads import (",
                      "    build_imdb_database,",
                      "    job_queries as jq,",
                      ")",
                      "from repro import storage  # a submodule")
        + "```bash\nfrom repro.storage import Missing\n```\n"
        + "from repro.storage import AlsoMissing\n")
    assert check_docs.find_broken_imports(tmp_path) == []


def test_command_line_check_fails_on_a_broken_code_sample(tmp_path, capsys):
    check_docs = _load_check_docs()
    (tmp_path / "README.md").write_text(
        _python_block("from repro.storage.table import DataTable, Gone"))
    assert check_docs.main(["check_docs.py", str(tmp_path)]) == 1
    assert ("README.md: repro.storage.table has no 'Gone'"
            in capsys.readouterr().out)


def test_documented_cli_flags_exist():
    check_docs = _load_check_docs()
    unknown = check_docs.find_unknown_cli_flags(REPO_ROOT)
    assert unknown == [], (
        "'python -m repro.cli' lines with undefined options: "
        + ", ".join(f"{doc} -> {flag}" for doc, flag in unknown))


def test_unknown_cli_flags_are_reported(tmp_path):
    """Flags are checked against their own subcommand, across backslash
    continuations, up to a comment or a closing backtick."""
    check_docs = _load_check_docs()
    (tmp_path / "EXPERIMENTS.md").write_text(
        "python -m repro.cli run figure11_job --scale 0.1 --jobs=2  # --gone\n"
        "| serve | `python -m repro.cli serve --no-cache` (--also-gone) |\n"
        "python -m repro.cli serve --workers 2 \\\n"
        "    --old-width 64\n"
        "python -m repro.cli frobnicate\n")
    (tmp_path / "README.md").write_text(
        "python -m repro.cli list --json --no-cache\n")
    assert check_docs.find_unknown_cli_flags(tmp_path) == [
        ("EXPERIMENTS.md", "serve --old-width"),
        ("EXPERIMENTS.md", "frobnicate"),
        ("README.md", "list --no-cache")]


def test_command_line_check_fails_on_a_stale_cli_flag(tmp_path, capsys):
    check_docs = _load_check_docs()
    (tmp_path / "README.md").write_text(
        "python -m repro.cli run figure11_job --no-such-option\n")
    assert check_docs.main(["check_docs.py", str(tmp_path)]) == 1
    assert "README.md: run --no-such-option" in capsys.readouterr().out


def test_third_party_imports_are_on_both_install_lines():
    check_docs = _load_check_docs()
    assert check_docs.third_party_imports(REPO_ROOT) == {"numpy"}
    unlisted = check_docs.find_unlisted_dependencies(REPO_ROOT)
    assert unlisted == [], (
        "imported under src/repro but not installed: "
        + ", ".join(f"{doc} -> {module}" for doc, module in unlisted))


def test_command_line_check_fails_on_an_unlisted_import(tmp_path, capsys):
    """Standard-library, relative and ``repro`` imports need no install
    line; a third-party one missing from either line fails the check."""
    check_docs = _load_check_docs()
    package = tmp_path / "src" / "repro" / "core"
    package.mkdir(parents=True)
    (package / "graph.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from networkx.algorithms import cycles\n"
        "from repro.plan import logical\n"
        "from . import subquery\n")
    (tmp_path / "README.md").write_text(
        "## Install\n\n```bash\npip install numpy networkx pytest\n```\n\n"
        "## Use\n\n```bash\npip install -e .\n```\n")
    workflow = tmp_path / ".github" / "workflows"
    workflow.mkdir(parents=True)
    (workflow / "ci.yml").write_text(
        "      - run: pip install build\n"
        "      - name: Install dependencies\n"
        "        run: python -m pip install numpy pytest\n")
    assert check_docs.find_unlisted_dependencies(tmp_path) == [
        (".github/workflows/ci.yml", "networkx")]
    assert check_docs.main(["check_docs.py", str(tmp_path)]) == 1
    assert ".github/workflows/ci.yml: networkx" in capsys.readouterr().out


def test_core_documents_exist():
    for name in ("README.md", "ARCHITECTURE.md", "EXPERIMENTS.md", "ROADMAP.md"):
        assert (REPO_ROOT / name).is_file(), f"{name} is missing"


def test_examples_are_importable():
    """Every example script must at least compile (CI runs quickstart fully)."""
    for script in sorted((REPO_ROOT / "examples").glob("*.py")):
        source = script.read_text(encoding="utf-8")
        compile(source, str(script), "exec")
