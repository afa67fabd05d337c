"""Benchmark harness, reporting, and persisted-artifact utilities."""

from repro.bench.artifacts import (
    SCHEMA_VERSION,
    ExperimentResult,
    load_artifact,
    validate_artifact,
    write_artifact,
)
from repro.bench.harness import HarnessConfig, run_generated, run_query, run_workload
from repro.bench.reporting import format_table

__all__ = ["HarnessConfig", "run_query", "run_workload", "run_generated",
           "format_table", "ExperimentResult",
           "SCHEMA_VERSION", "write_artifact", "load_artifact",
           "validate_artifact"]
