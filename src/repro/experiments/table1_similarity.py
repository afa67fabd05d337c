"""Table 1: how far initial global plans deviate from optimal plans.

For every JOB query the default optimizer's plan is compared against the
plan produced with true cardinalities (the oracle); the similarity score is
the number of leaf relations in their largest common subtree (Section 2.2).
The paper reports the fraction of queries with similarity 0, 1, 2, and >2 --
more than half of the queries lose plan optimality within the first join.
"""

from __future__ import annotations

from collections import Counter

from repro.bench.artifacts import ExperimentResult
from repro.bench.reporting import format_table
from repro.experiments.registry import experiment
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.oracle import OracleCardinalityEstimator, TrueCardinalityOracle
from repro.plan.similarity import plan_similarity, similarity_bucket
from repro.storage.database import IndexConfig
from repro.workloads import dbcache
from repro.workloads.job_queries import job_queries

PAPER_ARTIFACT = "Table 1 (initial vs. optimal plan similarity)"


@experiment(artifact=PAPER_ARTIFACT)
def run(scale: float = 1.0, families: list[int] | None = None,
        verbose: bool = True) -> ExperimentResult:
    """Compute the similarity distribution (Table 1).

    ``result.data`` maps ``{"0": ratio, "1": ratio, "2": ratio, ">2": ratio}``.
    """
    database = dbcache.build("imdb", scale=scale, index_config=IndexConfig.PK_FK)
    queries = job_queries(families=families)

    default_optimizer = Optimizer(database)
    oracle = TrueCardinalityOracle(database)
    optimal_optimizer = Optimizer(database).with_estimator(
        OracleCardinalityEstimator(database, oracle=oracle))

    buckets: Counter[str] = Counter()
    for query in queries:
        spj = query.spj
        initial = default_optimizer.plan(spj)
        optimal = optimal_optimizer.plan(spj)
        score = plan_similarity(initial, optimal)
        buckets[similarity_bucket(score)] += 1
        oracle.reset()

    total = sum(buckets.values())
    ratios = {key: buckets.get(key, 0) / total for key in ("0", "1", "2", ">2")}
    rows = [[key, buckets.get(key, 0), f"{ratios[key] * 100:.0f}%"]
            for key in ("0", "1", "2", ">2")]
    return ExperimentResult(
        data=ratios,
        summary={"ratios": ratios, "queries": total},
        tables=[format_table(["Similarity", "Queries", "Ratio"], rows,
                             title="Table 1: initial vs. optimal plan similarity")],
    )
