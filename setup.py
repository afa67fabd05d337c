"""Metadata-free setuptools shim.

The project has no ``pyproject.toml`` or ``setup.cfg``: setuptools' automatic
discovery finds the single ``repro`` package under ``src/`` and names the
distribution after it.  This file exists only so that ``pip install -e .``
works; the tests and examples run from a checkout with ``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
