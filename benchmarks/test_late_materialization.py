"""Microbenchmark: cross-policy reuse of executed subtrees.

A Table 3 policy-grid run sharing one :class:`SubplanCache` must actually
reuse executed subtrees across policies (hit rate > 0) without changing
any query result.
"""

from benchmarks.conftest import full_mode
from repro.core.qsa import QSAStrategy
from repro.core.ssa import CostFunction
from repro.executor.subplan_cache import SubplanCache
from repro.experiments import table3_policies


def test_subplan_cache_hit_rate_on_table3_run(scale):
    cache = SubplanCache()
    results = table3_policies.run(
        scale=0.25 if not full_mode() else scale,
        families=[1, 2],
        qsa_strategies=(QSAStrategy.FK_CENTER, QSAStrategy.PK_CENTER),
        cost_functions=(CostFunction.PHI4,),
        subplan_cache=cache,
        verbose=False,
    ).data
    assert cache.hits > 0
    assert cache.hit_rate > 0.0
    # Sharing subtrees across policies must not change any result.
    per_combo = [[report.final_rows for report in result.reports]
                 for result in results.values()]
    assert all(rows == per_combo[0] for rows in per_combo[1:])
    print(f"\n  shared cache across {len(results)} policy runs: "
          f"{cache.hits} hits / {cache.misses} misses "
          f"(hit rate {cache.hit_rate:.1%}, {len(cache)} entries)")
