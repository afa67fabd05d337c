"""Plain-text reporting helpers shared by the experiment modules.

Every experiment renders its reproduction of the corresponding paper table
or figure as an ASCII table (attached to the
:class:`~repro.bench.artifacts.ExperimentResult` it returns) so that the
benchmark output can be compared to the paper side by side.  Formatting
lives here, measurement in :mod:`repro.bench.harness`, and persistence in
:mod:`repro.bench.artifacts`.
"""

from __future__ import annotations

from typing import Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str | None = None) -> str:
    """Render a simple ASCII table."""
    columns = [list(map(str, col)) for col in zip(headers, *rows)] if rows else [
        [str(h)] for h in headers]
    widths = [max(len(value) for value in col) for col in columns]
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def format_seconds(seconds: float) -> str:
    """Human-friendly rendering of a workload execution time."""
    if seconds >= 100:
        return f"{seconds:.0f} s"
    if seconds >= 1:
        return f"{seconds:.2f} s"
    return f"{seconds * 1000:.1f} ms"
