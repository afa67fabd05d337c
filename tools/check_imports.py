#!/usr/bin/env python3
"""Import-cycle guard: every ``repro.*`` module imports first, on its own.

A cycle between two packages can hide behind one import order: ``import
repro.storage`` may succeed while ``import repro.executor.joins`` in a
fresh interpreter fails on a partially initialised module.  This script
lists every module under ``src/repro`` with :func:`pkgutil.iter_modules`,
package by package and without importing any, and imports each one as the
first import of a new interpreter.

Usage::

    python tools/check_imports.py [repo_root]

Exits non-zero listing every module that failed to import, with the last
line of its error.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


def module_names(package: Path, name: str) -> list[str]:
    """``name`` and every module and package below it, dotted."""
    names = [name]
    for info in pkgutil.iter_modules([str(package)], prefix=name + "."):
        if info.ispkg:
            names += module_names(package / info.name.rpartition(".")[2], info.name)
        else:
            names.append(info.name)
    return names


def import_error(name: str, env: dict[str, str]) -> str | None:
    """The last error line of ``import name`` in a fresh interpreter, or
    ``None`` when it imports."""
    done = subprocess.run([sys.executable, "-c", f"import {name}"], env=env,
                          capture_output=True, text=True)
    if done.returncode == 0:
        return None
    lines = done.stderr.strip().splitlines()
    return lines[-1] if lines else f"exit code {done.returncode}"


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    src = root / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    names = module_names(src / "repro", "repro")
    with ThreadPoolExecutor(max_workers=4) as pool:
        errors = list(pool.map(lambda name: import_error(name, env), names))
    failed = [(name, error) for name, error in zip(names, errors) if error]
    for name, error in failed:
        print(f"{name}: {error}")
    print(f"{len(names) - len(failed)} of {len(names)} modules import first")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
