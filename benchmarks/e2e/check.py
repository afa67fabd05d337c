"""Result checking: a per-query digest and the golden files it is held to.

A digest is ``[row count, CRC32]`` over the result's columns, independent
of row order: numeric columns contribute their sum rounded to 6
significant digits (join re-association legitimately moves the last bits
of a float sum), other columns the sum of their values' CRC32s (floats
inside them rounded the same way).
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def digest(table) -> list[int]:
    """``[rows, crc32]`` of a result table (order-independent)."""
    parts = []
    for name in sorted(table.column_names):
        values = table.column_values(name, cache=False)
        if values.dtype.kind in "iub":
            parts.append(f"{name}={int(values.sum())}")
        elif values.dtype.kind == "f":
            parts.append(f"{name}={float(np.nansum(values)):.6g}"
                         f"/{int(np.isnan(values).sum())}")
        else:
            total = sum(zlib.crc32((f"{v:.6g}" if isinstance(v, float)
                                    else repr(v)).encode())
                        for v in values.tolist())
            parts.append(f"{name}={total & 0xFFFFFFFF}")
    return [int(table.num_rows), zlib.crc32(";".join(parts).encode())]


def plan_crc(report) -> int:
    """CRC32 of one query's iteration trace (what ran, in which order)."""
    trace = [(it.description, sorted(it.aliases), it.result_rows,
              it.materialized, it.replanned) for it in report.iterations]
    return zlib.crc32(repr((report.algorithm, report.query_name, trace,
                            report.final_rows)).encode())


def load_golden(stream: str) -> dict[str, list[int]] | None:
    path = GOLDEN_DIR / f"{stream}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def write_golden(stream: str, digests: dict[str, list[int]]) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{stream}.json"
    path.write_text(json.dumps(digests, sort_keys=True, indent=0) + "\n")
