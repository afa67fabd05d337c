"""Persisted experiment artifacts: the common result type and its JSON form.

Every experiment module returns an :class:`ExperimentResult`; the CLI runner
(``python -m repro.cli``, see :mod:`repro.cli`) persists one schema-versioned
JSON artifact per experiment under ``results/`` and merges them into
``BENCH_summary.json``.  The artifact schema is documented field by field in
EXPERIMENTS.md; :func:`validate_artifact` is the single source of truth for
what a well-formed artifact looks like, and bumping :data:`SCHEMA_VERSION`
is the only way the shape may change.

The separation of concerns is deliberate:

* experiment modules **measure** (build workloads, run algorithms) and
  attach pre-rendered ASCII ``tables`` for humans;
* this module **serializes** (per-query records, per-key summaries, JSON
  round-trip, shard merging);
* :mod:`repro.cli` **orchestrates** (process pool, resume-skip, summary).
"""

from __future__ import annotations

import enum
import json
import os
import subprocess
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.report import WorkloadResult

#: Version of the persisted artifact shape.  Readers reject other versions;
#: any field addition/removal/retyping must bump this.
SCHEMA_VERSION = 1

#: Top-level fields every artifact must carry (see EXPERIMENTS.md).
REQUIRED_FIELDS = (
    "schema_version", "experiment", "artifact", "params", "git_rev",
    "started_at", "finished_at", "wall_clock_seconds", "queries", "summary",
    "tables",
)

#: Fields of each entry of the artifact's ``queries`` list.
QUERY_RECORD_FIELDS = (
    "key", "query", "algorithm", "total_time", "timed_out", "iterations",
    "materializations", "materialized_bytes", "planner_invocations",
)


@dataclass
class ExperimentResult:
    """Common return type of every experiment module's ``run()``.

    ``data`` keeps the experiment-specific structured outcome (the shape the
    module's tests assert on); ``workloads`` flattens every
    :class:`~repro.report.WorkloadResult` under a stable string key so the
    per-query timings can be serialized uniformly; ``summary`` holds the
    JSON-safe headline numbers and ``tables`` the pre-rendered ASCII
    reproduction of the paper artifact.  ``name``, ``artifact`` and
    ``params`` are the envelope the ``@experiment`` decorator
    (:mod:`repro.experiments.registry`) fills in from the call.
    """

    data: Any
    workloads: dict[str, WorkloadResult] = field(default_factory=dict)
    summary: dict[str, Any] = field(default_factory=dict)
    tables: list[str] = field(default_factory=list)
    name: str = ""
    artifact: str = ""
    params: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        """The human-readable reproduction (what ``verbose=True`` prints)."""
        return "\n\n".join(self.tables)

    def query_records(self) -> list[dict[str, Any]]:
        """One flat record per (key, query) pair — the artifact's ``queries``."""
        return query_records(self.workloads)


def query_records(workloads: Mapping[str, WorkloadResult]) -> list[dict[str, Any]]:
    """Flatten per-query execution reports into JSON-safe records."""
    records: list[dict[str, Any]] = []
    for key, result in workloads.items():
        for report in result.reports:
            records.append({
                "key": key,
                "query": report.query_name,
                "algorithm": report.algorithm,
                "total_time": report.total_time,
                "timed_out": report.timed_out,
                "iterations": report.num_iterations,
                "materializations": report.materializations,
                "materialized_bytes": report.materialized_bytes,
                "planner_invocations": report.planner_invocations,
            })
    return records


def per_key_summary(records: Sequence[Mapping[str, Any]]) -> dict[str, dict[str, Any]]:
    """Aggregate query records per key: totals a reader can compare at a glance."""
    summary: dict[str, dict[str, Any]] = {}
    for record in records:
        entry = summary.setdefault(record["key"], {
            "total_time": 0.0, "queries": 0, "timeouts": 0,
            "materializations": 0, "materialized_bytes": 0,
        })
        entry["total_time"] += record["total_time"]
        entry["queries"] += 1
        entry["timeouts"] += int(record["timed_out"])
        entry["materializations"] += record["materializations"]
        entry["materialized_bytes"] += record["materialized_bytes"]
    return summary


def base_summary(workloads: Mapping[str, WorkloadResult]) -> dict[str, Any]:
    """The summary skeleton shared by every experiment: per-key aggregates."""
    return {"per_key": per_key_summary(query_records(workloads))}


def jsonify(value: Any) -> Any:
    """Coerce experiment params/summaries to JSON-serializable values."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Mapping):
        return {_json_key(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [jsonify(v) for v in value]
        return sorted(items, key=str) if isinstance(value, (set, frozenset)) else items
    if isinstance(value, Path):
        return str(value)
    if hasattr(value, "item") and callable(value.item):  # numpy scalars
        return value.item()
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    # Any other object, such as a SubplanCache passed to run(): its type.
    return type(value).__name__


def _json_key(key: Any) -> str:
    if isinstance(key, enum.Enum):
        return str(key.value)
    if isinstance(key, tuple):
        return "/".join(str(_json_key(part)) for part in key)
    return str(key)


def git_rev(repo_root: Path | None = None) -> str:
    """The current git commit hash, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root or Path.cwd(), capture_output=True, text=True,
            timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def utc_now() -> str:
    """ISO-8601 UTC timestamp used in artifacts."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# ----------------------------------------------------------------------
# Artifact merge / IO / validation
# ----------------------------------------------------------------------

def partial_artifact(result: ExperimentResult,
                     wall_clock_seconds: float) -> dict[str, Any]:
    """The picklable per-shard payload a pool worker sends back to the CLI."""
    return {
        "experiment": result.name,
        "artifact": result.artifact,
        "params": jsonify(result.params),
        "queries": result.query_records(),
        "summary": jsonify(result.summary),
        "tables": list(result.tables),
        "wall_clock_seconds": wall_clock_seconds,
    }


def merge_partials(partials: Sequence[Mapping[str, Any]], *,
                   shard_param: str | None,
                   started_at: str, finished_at: str,
                   wall_clock_seconds: float,
                   rev: str | None = None) -> dict[str, Any]:
    """Merge per-shard payloads into one artifact.

    A single partial keeps its experiment-specific summary and tables
    verbatim.  For a genuinely sharded run the per-query records are
    concatenated, the shard param (e.g. ``families``) becomes the sorted
    union, and the summary is rebuilt from the merged records — per-key
    aggregates only, flagged with ``"sharded": true`` (experiment-specific
    extras such as category frequencies are only computed by unsharded
    runs).
    """
    if not partials:
        raise ValueError("merge_partials needs at least one shard payload")
    first = partials[0]
    merged: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "experiment": first["experiment"],
        "artifact": first["artifact"],
        "git_rev": rev if rev is not None else git_rev(),
        "started_at": started_at,
        "finished_at": finished_at,
        "wall_clock_seconds": wall_clock_seconds,
        "worker_seconds": sum(p["wall_clock_seconds"] for p in partials),
    }
    if len(partials) == 1:
        merged.update(params=dict(first["params"]), queries=list(first["queries"]),
                      summary=dict(first["summary"]), tables=list(first["tables"]))
        return merged

    params = dict(first["params"])
    if shard_param is not None:
        union: list = []
        for partial in partials:
            values = partial["params"].get(shard_param) or []
            union.extend(v for v in values if v not in union)
        params[shard_param] = sorted(union)
    records = [record for partial in partials for record in partial["queries"]]
    per_key = per_key_summary(records)
    merged.update(
        params=params,
        queries=records,
        summary={"per_key": per_key, "sharded": True, "shards": len(partials)},
        tables=[render_per_key(per_key,
                               title=f"{first['experiment']} (merged from "
                                     f"{len(partials)} shards)")],
    )
    return merged


def render_per_key(per_key: Mapping[str, Mapping[str, Any]],
                   title: str | None = None) -> str:
    """ASCII rendering of a per-key summary (used for merged shard artifacts)."""
    from repro.bench.reporting import format_seconds, format_table
    rows = [[key, entry["queries"], format_seconds(entry["total_time"]),
             entry["timeouts"] or "", entry["materializations"]]
            for key, entry in sorted(per_key.items())]
    return format_table(["Key", "Queries", "Total time", "Timeouts",
                         "Materializations"], rows, title=title)


def write_artifact(path: Path, artifact: Mapping[str, Any]) -> None:
    """Atomically persist an artifact (write to a temp file, then rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_artifact(path: Path) -> dict[str, Any]:
    """Load a persisted artifact (no validation; see :func:`validate_artifact`)."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def validate_artifact(artifact: Any) -> list[str]:
    """Return every schema violation of ``artifact`` (empty list = valid)."""
    errors: list[str] = []
    if not isinstance(artifact, Mapping):
        return [f"artifact is {type(artifact).__name__}, expected an object"]
    for name in REQUIRED_FIELDS:
        if name not in artifact:
            errors.append(f"missing field {name!r}")
    if errors:
        return errors
    if artifact["schema_version"] != SCHEMA_VERSION:
        errors.append(f"schema_version {artifact['schema_version']!r} != "
                      f"{SCHEMA_VERSION}")
    if not isinstance(artifact["params"], Mapping):
        errors.append("params is not an object")
    if not isinstance(artifact["summary"], Mapping):
        errors.append("summary is not an object")
    if not isinstance(artifact["tables"], list):
        errors.append("tables is not a list")
    if not isinstance(artifact["queries"], list):
        errors.append("queries is not a list")
    else:
        for index, record in enumerate(artifact["queries"]):
            if not isinstance(record, Mapping):
                errors.append(f"queries[{index}] is not an object")
                continue
            missing = [f for f in QUERY_RECORD_FIELDS if f not in record]
            if missing:
                errors.append(f"queries[{index}] missing {', '.join(missing)}")
    return errors


# ----------------------------------------------------------------------
# BENCH_summary.json
# ----------------------------------------------------------------------

def build_bench_summary(artifacts: Mapping[str, Mapping[str, Any]],
                        rev: str | None = None) -> dict[str, Any]:
    """Merge per-experiment artifacts into the ``BENCH_summary.json`` shape."""
    experiments = {}
    for name in sorted(artifacts):
        artifact = artifacts[name]
        records = artifact.get("queries", [])
        experiments[name] = {
            "artifact": artifact.get("artifact"),
            "params": artifact.get("params", {}),
            "git_rev": artifact.get("git_rev"),
            "finished_at": artifact.get("finished_at"),
            "wall_clock_seconds": artifact.get("wall_clock_seconds"),
            "queries": len(records),
            "measured_seconds": sum(r.get("total_time", 0.0) for r in records),
            "timeouts": sum(1 for r in records if r.get("timed_out")),
            "per_key": per_key_summary(records),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_at": utc_now(),
        "git_rev": rev if rev is not None else git_rev(),
        "experiments": experiments,
    }
