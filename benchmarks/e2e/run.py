"""End-to-end benchmark runner: ``python3 benchmarks/e2e/run.py`` (or
``PYTHONPATH=src python -m benchmarks.e2e.run``).

Each workload runs in a fresh child process with a pinned environment
(see ``PINNED_ENV`` and the README for what each variable was measured
to do).  With ``--workload`` the last line of standard output is the one
JSON object the benchmark contract asks for; without it, all workloads
run and one JSON document is printed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
OUT_DIR = HERE / "out"
CHILD_TIMEOUT = 170  # the contract allows a run 180 s

PINNED_ENV = {
    # Plans depend on set/dict iteration order of strings.
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # One heap, never handed back to the OS and never mmap'ed per array:
    # re-faulting multi-MB intermediates costs seconds on this kind of VM.
    "MALLOC_ARENA_MAX": "1",
    "MALLOC_MMAP_THRESHOLD_": "4294967296",
    "MALLOC_TRIM_THRESHOLD_": "17179869184",
}
MACHINE_KEYS = ("cpus", "python", "numpy", "platform")


# ----------------------------------------------------------------------
# Child: one workload, in the pinned process
# ----------------------------------------------------------------------
def child_main(args) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    import numpy
    from benchmarks.e2e.workloads import WORKLOADS, measure

    span_path = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        span_path = OUT_DIR / f"{args.workload}.spans.jsonl"
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), args.smoke, args.regen_golden, span_path)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for group in ("end_to_end", "per_layer"):
        if group not in result:
            continue
        declared = [m["name"] for m in SPEC[group]]
        if sorted(result[group]) != sorted(declared):
            raise SystemExit(f"{group} metrics differ from BENCHMARK.json: "
                             f"{sorted(set(result[group]) ^ set(declared))}")
        result[group] = {name: {"value": result[group][name], "unit": units[name]}
                         for name in declared}
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


def run_child(workload: str, seed: int, args) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    command += ["--smoke"] * args.smoke + ["--regen-golden"] * args.regen_golden
    done = subprocess.run(command, env={**os.environ, **PINNED_ENV},
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT)
    if done.returncode != 0:
        raise SystemExit(f"workload {workload} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# Parent: orchestration and reports
# ----------------------------------------------------------------------
def fingerprint(seed: int, numpy_version: str) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"  # the driver's checkout is not a git repository
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform(),
            "git_rev": rev, "seed": seed}


def run_sets(args, workloads: list[str], sets: int) -> dict:
    """Run ``sets`` full sets (set k at seed + k) and return the document."""
    results = [{w: run_child(w, args.seed + k, args) for w in workloads}
               for k in range(sets)]
    return {"fingerprint": fingerprint(args.seed, results[0][workloads[0]]["numpy"]),
            "env": PINNED_ENV, "seconds": args.seconds, "smoke": args.smoke,
            "sets": results}


def metric_values(document: dict) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> one value per set`` over both metric groups."""
    values: dict[tuple[str, str], list[float]] = {}
    for one_set in document["sets"]:
        for workload, result in one_set.items():
            for group in ("end_to_end", "per_layer"):
                for name, metric in result.get(group, {}).items():
                    values.setdefault((workload, name), []).append(metric["value"])
    return values


def report_aa(document: dict) -> bool:
    """Print each metric's spread across sets against its bound."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    ok = True
    print(f"{'workload':16} {'metric':28} {'median':>12} {'iqr/med':>8} "
          f"{'range/med':>9} {'bound':>6}")
    for (workload, name), values in metric_values(document).items():
        median = statistics.median(values)
        if len(values) < 2 or median == 0:
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr, spread = (q3 - q1) / abs(median), (max(values) - min(values)) / abs(median)
        bound = bounds.get(name)
        verdict = ""
        if name == "trace.plan_crc32":
            verdict = "" if spread == 0 else "  PLANS DIFFER"
        elif bound is not None and name != "setup_s" and iqr > bound:
            verdict = "  OVER BOUND"
        ok = ok and not verdict
        print(f"{workload:16} {name:28} {median:12.5g} {iqr:8.4f} {spread:9.4f} "
              f"{bound if bound is not None else '':>6}{verdict}")
    return ok


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for key in MACHINE_KEYS:
        if a["fingerprint"][key] != b["fingerprint"][key]:
            print(f"refusing to compare: {key} differs "
                  f"({a['fingerprint'][key]} vs {b['fingerprint'][key]})")
            return 2
    values_a, values_b = metric_values(a), metric_values(b)
    print(f"base A = {path_a} ({a['fingerprint']['git_rev'][:12]}), "
          f"B = {path_b} ({b['fingerprint']['git_rev'][:12]}); ratio = B / A")
    for key in values_a:
        if key not in values_b:
            continue
        med_a, med_b = (statistics.median(v[key]) for v in (values_a, values_b))
        ratio = f"{med_b / med_a:8.4f}" if med_a else "     n/a"
        print(f"{key[0]:16} {key[1]:28} A {med_a:12.5g}  B {med_b:12.5g}  "
              f"B/A {ratio}  (n={len(values_a[key])}/{len(values_b[key])})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="scale / 3, one timed pass, 100 served queries")
    parser.add_argument("--aa", type=int, metavar="K",
                        help="run K sets (seed, seed+1, ...) and print spreads")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--out", help="also write the JSON document here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args)
    if args.compare:
        return compare(*args.compare)

    if args.smoke:
        if args.regen_golden:
            parser.error("golden results are recorded at full size, not --smoke")
        args.seconds = 0.0  # one timed pass (plus one traced)
    workloads = [args.workload] if args.workload else WORKLOAD_NAMES
    document = run_sets(args, workloads, args.aa or 1)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    results = [r for one_set in document["sets"] for r in one_set.values()]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for result in results:
        for problem in result["problems"]:
            print(f"{result['workload']}: {problem}", file=sys.stderr)

    ok = failed == 0
    if args.aa:
        ok = report_aa(document) and ok
    elif args.workload:
        group = "per_layer" if args.trace else "end_to_end"
        print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                          "metrics": results[0][group]}))
    else:
        print(json.dumps(document, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
