#!/usr/bin/env python3
"""Compare benchmark results against the committed baseline ratios.

Usage:
    check_regression.py --baseline bench/baseline_ratios.json \
        BENCH_canonical.json BENCH_parallel.json

Each benchmark JSON is google-benchmark ``--benchmark_format=json``
output. The baseline file defines speedup ratios (numerator benchmark
time / denominator benchmark time) and the value each ratio had when it
was committed. Absolute times vary with the host, so only ratios are
checked: a run fails when a measured ratio falls more than ``tolerance``
below its committed baseline. Ratios marked ``min_cores`` are skipped on
hosts too small to express the speedup at all.

The optional ``counters`` section pins deterministic work counters (for
example analysis builds per enumeration) that benchmarks report as
google-benchmark user counters. They are the same on every host, so
they are compared exactly: any difference fails, in either direction.
"""

import argparse
import json
import os
import sys


def load_runs(paths):
    """Loads the per-iteration benchmark rows across all result files.

    Returns ``(runs, loaded, problems)``: the name -> list of rows map
    (one row per repetition), the set of result file basenames that
    parsed, and a list of human-readable
    problems for files that could not be read or parsed. Unreadable files
    are reported rather than raised so one missing artifact fails its own
    ratios with a clear message instead of killing the whole check with a
    traceback.
    """
    runs = {}
    loaded = set()
    problems = []
    for path in paths:
        try:
            with open(path) as f:
                data = json.load(f)
        except OSError as e:
            problems.append(f"cannot read results file '{path}': "
                            f"{e.strerror or e}")
            continue
        except json.JSONDecodeError as e:
            problems.append(f"results file '{path}' is not valid "
                            f"google-benchmark JSON: {e}")
            continue
        loaded.add(os.path.basename(path))
        for b in data.get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                continue
            runs.setdefault(b["name"], []).append(b)
    return runs, loaded, problems


def missing_message(ratio, benchmark, loaded):
    """One line saying which benchmark is absent and from which file."""
    name = ratio["name"]
    where = ratio.get("file")
    if where is None:
        return f"FAIL {name}: benchmark '{benchmark}' not found in results"
    if os.path.basename(where) not in loaded:
        return (f"FAIL {name}: benchmark '{benchmark}' missing from {where} "
                f"(that results file was not supplied or did not parse)")
    return f"FAIL {name}: benchmark '{benchmark}' missing from {where}"


def check_counter(entry, runs, loaded):
    """Returns the failure line for one exact counter, or None if it holds.

    Every repetition of the benchmark must report exactly the expected
    value; the counters are deterministic, so there is no tolerance.
    """
    name = entry["name"]
    rows = runs.get(entry["benchmark"])
    if not rows:
        return missing_message(entry, entry["benchmark"], loaded)
    expected = entry["expected"]
    for row in rows:
        if entry["counter"] not in row:
            return (f"FAIL {name}: benchmark '{entry['benchmark']}' reports "
                    f"no counter '{entry['counter']}'")
        measured = row[entry["counter"]]
        if measured != expected:
            return (f"FAIL {name}: measured {measured:.17g}, expected "
                    f"exactly {expected} (deterministic counter changed)")
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True,
                    help="baseline ratios JSON (bench/baseline_ratios.json)")
    ap.add_argument("results", nargs="+",
                    help="google-benchmark JSON result files")
    args = ap.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    tolerance = float(baseline.get("tolerance", 0.25))
    runs, loaded, problems = load_runs(args.results)
    times = {n: float(rows[-1]["real_time"]) for n, rows in runs.items()}
    cores = os.cpu_count() or 1

    failed = []
    for p in problems:
        print(f"FAIL {p}")
        failed.append(p)
    for r in baseline["ratios"]:
        name = r["name"]
        if cores < int(r.get("min_cores", 1)):
            print(f"SKIP {name}: needs >= {r['min_cores']} cores, "
                  f"host has {cores}")
            continue
        num = times.get(r["numerator"])
        den = times.get(r["denominator"])
        if num is None or den is None:
            missing = r["numerator"] if num is None else r["denominator"]
            print(missing_message(r, missing, loaded))
            failed.append(name)
            continue
        measured = num / den
        floor = float(r["baseline"]) * (1.0 - tolerance)
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(f"{'FAIL' if measured < floor else 'PASS'} {name}: "
              f"measured {measured:.2f}x, baseline {r['baseline']:.2f}x, "
              f"floor {floor:.2f}x ({verdict})")
        if measured < floor:
            failed.append(name)

    for c in baseline.get("counters", []):
        problem = check_counter(c, runs, loaded)
        if problem:
            print(problem)
            failed.append(c["name"])
        else:
            print(f"PASS {c['name']}: {c['counter']} of {c['benchmark']} "
                  f"is exactly {c['expected']}")

    if failed:
        print(f"\n{len(failed)} check(s) failed (regression beyond "
              f"{tolerance:.0%}, a changed counter, or missing "
              f"benchmarks/results): "
              f"{'; '.join(failed)}")
        return 1
    print("\nall ratios within tolerance, all counters exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
