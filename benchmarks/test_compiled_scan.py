"""Microbenchmark: compiled-scan hot path acceptance.

Runs the scenario x mode sweep of
:mod:`repro.experiments.bench_compiled_scan` at a reduced size and asserts
the PR's acceptance bar: the full hot path (dictionary codes + fused
kernels) is at least 2x faster than the pre-PR baseline on string-equality
scans (12-13x in practice), with identical row counts, which the experiment
itself cross-checks cell by cell.

The 3-predicate low-selectivity conjunction (``multi3``) is gated on what
repeats exactly instead of on a wall-clock ratio of sub-millisecond scans:
the fused kernel must touch fewer rows than evaluating each of the three
predicates over the whole column would (3 x table rows) and select the
baseline's rows.  Its 2.0x wall floor failed one run in five on untouched
code (1.95x, then 2.09x / 2.11x / 2.63x, already best-of-5), so the wall
floor for ``multi3`` is 1.5x -- a guard against the hot path getting
slower, not the acceptance bar.
"""

from repro.experiments import bench_compiled_scan


def test_full_hot_path_speedup_floors(scale):
    # REPRO_BENCH_SCALE scales the sweep up, but the size is floored: below
    # ~200k rows the per-scan fixed overhead (executor plumbing, the
    # aggregate root) masks the kernel win and the 2x bar becomes noise.
    num_rows = max(int(400_000 * scale), 200_000)
    result = bench_compiled_scan.run(num_rows=num_rows, repeats=5,
                                     verbose=False)
    grid, speedups = result.data["grid"], result.data["speedups"]

    for scenario, floor in (("string_eq", 2.0), ("multi3", 1.5)):
        full = speedups[(scenario, "full")]
        assert full >= floor, (
            f"expected >= {floor}x full-hot-path speedup on {scenario}, "
            f"got {full:.2f}x")

    multi3 = grid[("multi3", "full")]
    assert 0 < multi3["fused_rows_touched"] < 3 * num_rows
    assert multi3["rows"] == grid[("multi3", "baseline")]["rows"]

    # The semijoin scenario must actually push a filter and prune rows.
    semijoin = result.data["semijoin"]
    assert semijoin["on"]["semijoin_filters"] > 0
    assert semijoin["on"]["semijoin_pruned_rows"] > 0
    assert semijoin["on"]["rows"] == semijoin["off"]["rows"]

    print("\n" + result.render())
