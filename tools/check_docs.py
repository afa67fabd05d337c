#!/usr/bin/env python3
"""Docs-consistency check: references resolve, experiments are documented.

Five checks:

1. Scans the repository's Python sources (docstrings and comments included
   -- the whole file text is searched) and Markdown documents for
   references to Markdown files, and fails if a referenced document is
   missing from the repository.  This keeps pointers like "see
   EXPERIMENTS.md" in ``src/repro/bench/harness.py`` from dangling when
   documents are renamed.
2. Loads the experiment registry (``repro.experiments.registry``) and fails
   if any registered experiment is not mentioned in EXPERIMENTS.md, so the
   CLI catalogue can never drift from the documentation.
3. Fails if EXPERIMENTS.md or README.md tells the reader to
   ``repro.cli run <name>`` for a name the registry does not hold, so a
   deleted or renamed experiment cannot linger in the docs.
4. Fails if a ``from repro... import a, b`` line inside a fenced Python
   block of a top-level Markdown document does not import, or names an
   attribute the module lacks, so a code sample cannot outlive the API it
   shows.
5. Fails if a ``python -m repro.cli <command> ...`` line in EXPERIMENTS.md
   or README.md passes a ``--flag`` that ``repro.cli.build_parser()`` does
   not define for that command (or names no such command), so a removed
   option cannot linger in the docs.

Usage::

    python tools/check_docs.py [repo_root]

Exits non-zero listing every dangling reference, undocumented experiment,
stale run command, broken code-sample import and unknown CLI flag.
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys
from pathlib import Path

#: Directories scanned for referencing files.
SCANNED_DIRS = ("src", "examples", "tests", "benchmarks", "tools")

#: Tokens that look like a Markdown file reference.  URLs are filtered out
#: separately; a bare ".md" (empty stem) never matches.
MD_REFERENCE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b")

#: ``repro.cli run`` followed by its experiment names (flags end the list).
RUN_COMMAND = re.compile(r"repro\.cli run((?:[ \t]+[A-Za-z_][A-Za-z0-9_]*)+)")

#: Documents whose ``repro.cli run <name>`` lines must name real experiments.
RUN_DOCUMENTS = ("EXPERIMENTS.md", "README.md")

#: ``python -m repro.cli <command>`` and the rest of its command line,
#: backslash continuations included.
CLI_COMMAND = re.compile(r"python3? -m repro\.cli[ \t]+(\w+)((?:\\\n|[^\n])*)")

#: A ``--flag`` (or ``--flag=value``) on a command line.
CLI_FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")

#: The body of a fenced Python block in Markdown.
PYTHON_FENCE = re.compile(r"^```(?:python|py)[ \t]*\n(.*?)^```", re.M | re.S)

#: ``from repro... import`` and its names; a parenthesized list may span lines.
REPRO_IMPORT = re.compile(
    r"^[ \t]*from[ \t]+(repro(?:\.\w+)*)[ \t]+import[ \t]+(\([^)]*\)|[^\n#]+)",
    re.M)


def referencing_files(root: Path) -> list[Path]:
    """All files whose text is searched for Markdown references."""
    files = sorted(root.glob("*.md"))
    for directory in SCANNED_DIRS:
        files.extend(sorted((root / directory).rglob("*.py")))
        files.extend(sorted((root / directory).rglob("*.md")))
    return [f for f in files if f.is_file()]


def find_missing_references(root: Path) -> list[tuple[Path, str]]:
    """``(referencing file, reference)`` pairs that resolve to no file.

    A reference resolves if it exists relative to the repository root or
    relative to the referencing file's own directory.
    """
    missing: list[tuple[Path, str]] = []
    for path in referencing_files(root):
        text = path.read_text(encoding="utf-8", errors="replace")
        for line in text.splitlines():
            for match in MD_REFERENCE.finditer(line):
                reference = match.group()
                start = match.start()
                prefix = line[max(0, start - 8):start]
                if "://" in prefix:  # part of a URL
                    continue
                if not ((root / reference).is_file()
                        or (path.parent / reference).is_file()):
                    missing.append((path, reference))
    return missing


def _use_sources(root: Path) -> None:
    """Make ``import repro`` load the package under ``root/src``."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def _registered_experiments(root: Path):
    """The registry's experiment names, or the ``ImportError`` message.

    Loading the registry imports the ``repro`` package (and therefore
    numpy); in a bare environment the checks report that clearly instead
    of dying with a traceback — and still fail, because a green docs
    check must mean the registry was actually compared.
    """
    _use_sources(root)
    try:
        from repro.experiments import registry
        return set(registry.load_all()), None
    except ImportError as exc:
        return None, f"<registry check could not run: {exc}>"


def find_undocumented_experiments(root: Path) -> list[str]:
    """Registered experiment names that EXPERIMENTS.md never mentions."""
    names, error = _registered_experiments(root)
    if error:
        return [error]
    experiments_md = (root / "EXPERIMENTS.md")
    text = experiments_md.read_text(encoding="utf-8") if experiments_md.is_file() else ""
    return sorted(name for name in names if name not in text)


def find_stale_run_commands(root: Path,
                            known: set[str] | None = None
                            ) -> list[tuple[str, str]]:
    """``(document, name)`` pairs where a ``repro.cli run <name>`` line in
    EXPERIMENTS.md or README.md names an unregistered experiment.

    ``known`` overrides the registry's names (tests pass a fixed set).
    """
    if known is None:
        known, error = _registered_experiments(root)
        if error:
            return [("<registry>", error)]
    stale: list[tuple[str, str]] = []
    for document in RUN_DOCUMENTS:
        path = root / document
        if not path.is_file():
            continue
        for match in RUN_COMMAND.finditer(path.read_text(encoding="utf-8")):
            stale.extend((document, name) for name in match.group(1).split()
                         if name not in known)
    return stale


def _imports(module, module_name: str, name: str) -> bool:
    """True if ``from <module_name> import <name>`` would succeed."""
    if hasattr(module, name):
        return True
    try:  # a submodule not imported yet
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def find_broken_imports(root: Path) -> list[tuple[str, str]]:
    """``(document, problem)`` pairs for ``from repro... import`` lines in
    fenced Python blocks of the top-level Markdown documents that fail.

    A line fails when its module does not import or lacks a name it
    imports.  Modules load from ``root/src``.
    """
    _use_sources(root)
    broken: list[tuple[str, str]] = []
    for path in sorted(root.glob("*.md")):
        text = path.read_text(encoding="utf-8")
        for block in PYTHON_FENCE.finditer(text):
            for match in REPRO_IMPORT.finditer(block.group(1)):
                module_name, names = match.groups()
                try:
                    module = importlib.import_module(module_name)
                except ImportError as exc:
                    broken.append((path.name, f"{module_name}: {exc}"))
                    continue
                for entry in names.strip("() \t\n").split(","):
                    words = entry.split()  # "name" or "name as alias"
                    if (words and words[0] != "*"
                            and not _imports(module, module_name, words[0])):
                        broken.append((path.name,
                                       f"{module_name} has no {words[0]!r}"))
    return broken


def _cli_options(root: Path):
    """Option strings per ``repro.cli`` subcommand, or the ``ImportError``."""
    _use_sources(root)
    try:
        from repro.cli import build_parser
    except ImportError as exc:
        return None, f"<CLI flag check could not run: {exc}>"
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return {name: set(sub._option_string_actions)
            for name, sub in commands.items()}, None


def find_unknown_cli_flags(root: Path) -> list[tuple[str, str]]:
    """``(document, "command --flag")`` pairs for flags that the command's
    parser does not define, and ``(document, command)`` for unknown
    commands, on ``python -m repro.cli`` lines of EXPERIMENTS.md or
    README.md.  A line ends at a backtick or a ``#`` comment."""
    options, error = _cli_options(root)
    if error:
        return [("<repro.cli>", error)]
    unknown: list[tuple[str, str]] = []
    for document in RUN_DOCUMENTS:
        path = root / document
        if not path.is_file():
            continue
        for match in CLI_COMMAND.finditer(path.read_text(encoding="utf-8")):
            command, rest = match.groups()
            if command not in options:
                unknown.append((document, command))
                continue
            rest = rest.split("`")[0].split("#")[0]
            unknown.extend((document, f"{command} {flag}")
                           for flag in CLI_FLAG.findall(rest)
                           if flag not in options[command])
    return unknown


def main(argv: list[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path(__file__).resolve().parents[1]
    failures = 0
    missing = find_missing_references(root)
    if missing:
        failures += 1
        print(f"docs check FAILED: {len(missing)} dangling Markdown reference(s):")
        for path, reference in missing:
            print(f"  {path.relative_to(root)}: {reference!r} does not exist")
    undocumented = find_undocumented_experiments(root)
    if undocumented:
        failures += 1
        print(f"docs check FAILED: {len(undocumented)} registered experiment(s) "
              "missing from EXPERIMENTS.md:")
        for name in undocumented:
            print(f"  {name}")
    stale = find_stale_run_commands(root)
    if stale:
        failures += 1
        print(f"docs check FAILED: {len(stale)} 'repro.cli run' command(s) "
              "name an unregistered experiment:")
        for document, name in stale:
            print(f"  {document}: {name}")
    broken = find_broken_imports(root)
    if broken:
        failures += 1
        print(f"docs check FAILED: {len(broken)} 'from repro... import' "
              "line(s) in Markdown code samples do not import:")
        for document, problem in broken:
            print(f"  {document}: {problem}")
    flags = find_unknown_cli_flags(root)
    if flags:
        failures += 1
        print(f"docs check FAILED: {len(flags)} 'python -m repro.cli' "
              "line(s) pass an option the CLI does not define:")
        for document, flag in flags:
            print(f"  {document}: {flag}")
    if failures:
        return 1
    print(f"docs check OK: all Markdown references under {root} resolve, "
          "every registered experiment is documented in EXPERIMENTS.md, "
          "every documented 'repro.cli run' names a registered experiment, "
          "every 'from repro... import' in a Markdown code sample imports, "
          "and every documented 'repro.cli' flag exists")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
