"""Table 6 and Figures 16-19: per-query categories and re-optimization timelines.

Every JOB query is classified by comparing QuerySplit's per-iteration
timeline (intermediate result sizes) against the best alternative
re-optimization algorithm:

* **Avoided Large Join** -- the alternatives produce an intermediate result
  at least ``LARGE_FACTOR`` times larger than anything QuerySplit produces;
* **Delayed Large Join** -- both produce a comparably large intermediate but
  QuerySplit produces it at a relatively later iteration;
* **No Difference** -- execution times within ``SIMILAR_MARGIN`` of each
  other;
* **Worse** -- QuerySplit is slower than the best alternative beyond the
  margin.

The timelines themselves (result size and execution time per iteration, the
data behind Figures 16-19) are returned for every query so they can be
plotted or inspected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.artifacts import ExperimentResult
from repro.bench.harness import HarnessConfig, run_workload
from repro.bench.reporting import format_table
from repro.experiments.registry import experiment
from repro.report import ExecutionReport, WorkloadResult
from repro.storage.database import IndexConfig
from repro.workloads import dbcache
from repro.workloads.job_queries import job_queries

PAPER_ARTIFACT = "Table 6 + Figures 16-19 (per-query categories and timelines)"

#: Factor by which an alternative's largest intermediate must exceed
#: QuerySplit's for the query to count as "Avoided Large Join".
LARGE_FACTOR = 4.0

#: Relative execution-time margin treated as "No Difference".
SIMILAR_MARGIN = 0.15

#: The alternatives QuerySplit is compared against (as in the paper).
DEFAULT_ALTERNATIVES = ("Pop", "IEF", "Perron19")

CATEGORIES = ("Avoided Large Join", "Delayed Large Join", "No Difference", "Worse")


@dataclass
class CategoryResult:
    """Classification outcome plus the underlying timelines."""

    categories: dict[str, str] = field(default_factory=dict)
    timelines: dict[str, dict[str, list[tuple[int, int, float]]]] = field(
        default_factory=dict)
    performance_effect: dict[str, float] = field(default_factory=dict)

    def frequency(self) -> dict[str, int]:
        """Number of queries per category."""
        counts = {category: 0 for category in CATEGORIES}
        for category in self.categories.values():
            counts[category] += 1
        return counts

    def average_effect(self) -> dict[str, float]:
        """Average relative improvement of QuerySplit per category."""
        sums = {category: [] for category in CATEGORIES}
        for query, category in self.categories.items():
            sums[category].append(self.performance_effect[query])
        return {category: (sum(values) / len(values) if values else 0.0)
                for category, values in sums.items()}


def classify(querysplit: ExecutionReport, alternatives: dict[str, ExecutionReport]
             ) -> tuple[str, float]:
    """Classify one query and compute QuerySplit's relative improvement."""
    best_alt = min(alternatives.values(), key=lambda r: r.total_time)
    effect = ((best_alt.total_time - querysplit.total_time)
              / max(best_alt.total_time, 1e-9))

    qs_time = querysplit.total_time
    if qs_time > best_alt.total_time * (1 + SIMILAR_MARGIN):
        return "Worse", effect
    if abs(qs_time - best_alt.total_time) <= SIMILAR_MARGIN * best_alt.total_time:
        return "No Difference", effect

    qs_max = max(querysplit.max_intermediate_rows, 1)
    alt_max = max(r.max_intermediate_rows for r in alternatives.values())
    if alt_max >= LARGE_FACTOR * qs_max:
        return "Avoided Large Join", effect

    # Both hit a comparable large intermediate; check whether QuerySplit hit
    # it relatively later in its timeline.
    def relative_position(report: ExecutionReport) -> float:
        if not report.iterations:
            return 1.0
        sizes = [it.result_rows for it in report.iterations]
        peak = sizes.index(max(sizes))
        return (peak + 1) / len(sizes)

    alt_positions = min(relative_position(r) for r in alternatives.values())
    if relative_position(querysplit) >= alt_positions:
        return "Delayed Large Join", effect
    return "Avoided Large Join", effect


@experiment(artifact=PAPER_ARTIFACT)
def run(scale: float = 1.0, families: list[int] | None = None,
        alternatives: tuple[str, ...] = DEFAULT_ALTERNATIVES,
        timeout_seconds: float = 30.0,
        verbose: bool = True) -> ExperimentResult:
    """Classify every JOB query (Table 6) and collect timelines (Fig. 16-19).

    ``result.data`` is the :class:`CategoryResult`.
    """
    database = dbcache.build("imdb", scale=scale, index_config=IndexConfig.PK_FK)
    queries = job_queries(families=families)
    config = HarnessConfig(timeout_seconds=timeout_seconds)

    runs: dict[str, WorkloadResult] = {
        name: run_workload(database, queries, name, config)
        for name in ("QuerySplit",) + tuple(alternatives)
    }

    result = CategoryResult()
    for query in queries:
        qs_report = runs["QuerySplit"].report_for(query.name)
        alt_reports = {name: runs[name].report_for(query.name)
                       for name in alternatives}
        category, effect = classify(qs_report, alt_reports)
        result.categories[query.name] = category
        result.performance_effect[query.name] = effect
        result.timelines[query.name] = {
            name: runs[name].report_for(query.name).timeline()
            for name in runs
        }

    freq = result.frequency()
    effects = result.average_effect()
    total = sum(freq.values())
    rows = [[category, f"{freq[category]} / {total}",
             f"{effects[category] * 100:.1f}%"] for category in CATEGORIES]

    return ExperimentResult(
        data=result,
        workloads=runs,
        summary={"frequency": freq, "average_effect": effects,
                 "categories": result.categories},
        tables=[format_table(
            ["Category", "Frequency", "Avg perf. effect"], rows,
            title="Table 6: per-query categories (QuerySplit vs best alternative)")],
    )
