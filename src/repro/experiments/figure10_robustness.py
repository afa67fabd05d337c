"""Figure 10: robustness of QuerySplit's policies to cardinality-estimation noise.

True cardinalities are perturbed with multiplicative noise
``err_card = 2**N(mu, sigma) * true_card`` and injected into the optimizer
that drives QuerySplit.  The paper sweeps the noise width for every QSA / SSA
policy combination and observes that FK-Center + Phi4 stays robust up to
sigma = 2 while PK-Center degrades quickly and everything breaks down at
sigma = 4.

By default the noise is applied on top of the statistics-based estimator
(whose errors the noise dwarfs); set ``use_oracle=True`` for the paper-exact
setup, which counts every sub-join the planner asks about.  That costs time
and memory: one sigma over all 91 JOB queries and the five default policies
took 19.9 s with the oracle against 6.6 s without at scale 1.0 (14.9 s
against 5.6 s at 0.5, 2 vCPUs), with 1.66 GB peak RSS against 0.24 GB,
because the oracle materializes sub-joins of up to 32M rows.  At both scales
28b under PK-Center + Phi4 times out with the oracle: a sub-join the oracle
must materialize to count a larger one is above the executor's join-size
cap.
"""

from __future__ import annotations

from repro.bench.artifacts import ExperimentResult, base_summary
from repro.bench.harness import HarnessConfig, run_workload
from repro.bench.reporting import format_seconds, format_table
from repro.core.qsa import QSAStrategy
from repro.core.ssa import CostFunction
from repro.experiments.registry import experiment
from repro.optimizer.cardinality import DefaultCardinalityEstimator
from repro.optimizer.injection import NoisyCardinalityEstimator
from repro.optimizer.oracle import OracleCardinalityEstimator
from repro.report import WorkloadResult
from repro.storage.database import IndexConfig
from repro.workloads import dbcache
from repro.workloads.job_queries import JOB_FAMILY_NUMBERS, job_queries

PAPER_ARTIFACT = "Figure 10 (CE-noise robustness)"

DEFAULT_SIGMAS = (0.5, 1.0, 2.0, 4.0)
DEFAULT_POLICIES = (
    (QSAStrategy.FK_CENTER, CostFunction.PHI4),
    (QSAStrategy.PK_CENTER, CostFunction.PHI4),
    (QSAStrategy.MIN_SUBQUERY, CostFunction.PHI4),
    (QSAStrategy.FK_CENTER, CostFunction.PHI1),
    (QSAStrategy.FK_CENTER, CostFunction.PHI5),
)


@experiment(artifact=PAPER_ARTIFACT, shard_param="families",
            shard_universe=JOB_FAMILY_NUMBERS)
def run(scale: float = 1.0, families: list[int] | None = None,
        sigmas: tuple[float, ...] = DEFAULT_SIGMAS,
        mu: float = 0.0,
        policies: tuple[tuple[QSAStrategy, CostFunction], ...] = DEFAULT_POLICIES,
        use_oracle: bool = False,
        seed: int = 1,
        timeout_seconds: float = 30.0,
        verbose: bool = True) -> ExperimentResult:
    """Run the robustness sweep.

    ``result.data`` maps ``(qsa, ssa, sigma)`` to the
    :class:`~repro.report.WorkloadResult` measured under that noise width.
    """
    database = dbcache.build("imdb", scale=scale, index_config=IndexConfig.PK_FK)
    queries = job_queries(families=families)

    results: dict[tuple[str, str, float], WorkloadResult] = {}
    for sigma in sigmas:
        def estimator_factory(db, _sigma=sigma):
            base = (OracleCardinalityEstimator(db) if use_oracle
                    else DefaultCardinalityEstimator(db))
            return NoisyCardinalityEstimator(base, mu=mu, sigma=_sigma, seed=seed)

        for strategy, cost_function in policies:
            config = HarnessConfig(
                timeout_seconds=timeout_seconds,
                qsa_strategy=strategy,
                cost_function=cost_function,
                estimator_factory=estimator_factory,
            )
            result = run_workload(database, queries, "QuerySplit", config)
            results[(strategy.value, cost_function.value, sigma)] = result

    headers = ["Policy (QSA, SSA)"] + [f"sigma={s}" for s in sigmas]
    rows = []
    for strategy, cost_function in policies:
        row = [f"{strategy.value} + {cost_function.value}"]
        for sigma in sigmas:
            result = results[(strategy.value, cost_function.value, sigma)]
            marker = " (TO)" if result.timeouts else ""
            row.append(format_seconds(result.total_time) + marker)
        rows.append(row)

    workloads = {f"{qsa}+{ssa}/sigma={sigma}": res
                 for (qsa, ssa, sigma), res in results.items()}
    outcome = ExperimentResult(
        name="figure10_robustness",
        artifact=PAPER_ARTIFACT,
        params={"scale": scale, "families": families, "sigmas": list(sigmas),
                "mu": mu, "use_oracle": use_oracle, "seed": seed,
                "timeout_seconds": timeout_seconds,
                "policies": [f"{s.value}+{c.value}" for s, c in policies]},
        data=results,
        workloads=workloads,
        summary=base_summary(workloads),
        tables=[format_table(headers, rows,
                             title=f"Figure 10: JOB time under CE noise (mu={mu})")],
    )
    if verbose:
        print(outcome.render())
    return outcome
