"""Benchmark: reproduce Table 4 (materialization frequency and memory)."""

from repro.experiments import table4_materialization


def test_table4_materialization(benchmark, scale, families):
    metrics = benchmark.pedantic(
        lambda: table4_materialization.run(scale=scale, families=families,
                                           verbose=True).data,
        rounds=1, iterations=1)
    # Paper shape, on counts that repeat exactly: QuerySplit has the smallest
    # per-subquery memory footprint among the algorithms that materialize,
    # and Reopt materializes least often.  The paper's claim that QuerySplit
    # materializes second-least does not reproduce (IEF does; see
    # EXPERIMENTS.md), so it is not asserted.
    per_subquery = {name: m["avg_mem_per_subquery_mb"] for name, m in metrics.items()
                    if m["avg_materializations_per_query"] > 0}
    assert min(per_subquery, key=per_subquery.get) == "QuerySplit", per_subquery
    mats = {name: m["avg_materializations_per_query"] for name, m in metrics.items()}
    assert min(mats, key=mats.get) == "Reopt", mats
