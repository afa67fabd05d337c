#!/usr/bin/env python3
"""Exactness check between two traced end-to-end benchmark documents.

Compares the per-layer *counts* of two ``benchmarks/e2e/run.py --trace 1
--seconds 0 --out X.json`` documents -- plan checksums, call counts, bytes,
rows touched, temporary tables, per-query iterations, subqueries, re-plans
and materializations, the cache hit rate and evictions -- and each
workload's attempted and failed query counts.  Timings are not compared.

Usage::

    python tools/trace_diff.py A.json B.json

Prints one line per differing value and exits 1 when any differs.
"""

from __future__ import annotations

import json
import sys


#: Compared counts whose names no suffix rule below catches.
COUNTS = frozenset({
    "trace.plan_crc32", "serving.cache_hit_rate", "serving.cache_evictions",
    "core.iterations_per_query", "core.subqueries_per_query",
    "reopt.replans_per_query", "reopt.materializations_per_query",
})


def is_count(name: str) -> bool:
    """True for the per-layer metrics that must match exactly."""
    return (name in COUNTS
            or name.endswith(("_calls", "_bytes", "_rows_touched"))
            or name.startswith("storage.temp_") and not name.endswith("_s"))


def counts(document: dict) -> dict[str, object]:
    """``"set/workload/name" -> value`` of every compared value."""
    out: dict[str, object] = {}
    for index, results in enumerate(document["sets"]):
        for workload, result in results.items():
            prefix = f"{index}/{workload}/"
            out[prefix + "attempted"] = result["attempted"]
            out[prefix + "failed"] = result["failed"]
            out.update((prefix + name, metric["value"])
                       for name, metric in result["per_layer"].items()
                       if is_count(name))
    return out


def diff(a: dict, b: dict) -> list[str]:
    """One line per value that differs or is missing on one side."""
    left, right = counts(a), counts(b)
    return [f"{key}: {left.get(key)} -> {right.get(key)}"
            for key in sorted(left.keys() | right.keys())
            if left.get(key) != right.get(key)]


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as a, open(sys.argv[2]) as b:
        lines = diff(json.load(a), json.load(b))
    print("\n".join(lines) or "all counts equal")
    sys.exit(1 if lines else 0)
