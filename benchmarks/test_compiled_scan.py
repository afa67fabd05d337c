"""Microbenchmark: compiled-scan hot path acceptance.

Runs the scenario x mode sweep of
:mod:`repro.experiments.bench_compiled_scan` at a reduced size and asserts
its acceptance bar: dictionary codes make string-equality scans at least
2x faster than comparing Python strings (12-13x in practice), with
identical row counts, which the experiment itself cross-checks cell by
cell.  The fused kernel's work bound is checked exactly, not by wall
clock, in ``tests/test_kernels.py``.
"""

from repro.experiments import bench_compiled_scan


def test_dictionary_codes_speedup_floor(scale):
    # REPRO_BENCH_SCALE scales the sweep up, but the size is floored: below
    # ~200k rows the per-scan fixed overhead (executor plumbing, the
    # aggregate root) masks the kernel win and the 2x bar becomes noise.
    num_rows = max(int(400_000 * scale), 200_000)
    result = bench_compiled_scan.run(num_rows=num_rows, repeats=5,
                                     verbose=False)
    speedup = result.data["speedups"][("string_eq", "dict")]
    assert speedup >= 2.0, (
        f"expected >= 2x dictionary-code speedup on string_eq, "
        f"got {speedup:.2f}x")

    print("\n" + result.render())
