#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs each named workload once per seed with perfbench/run.py and prints,
per workload and end-to-end metric, the median and the spread: the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the bound BENCHMARK.json allows.

    python3 perfbench/steadiness.py --seeds 1-10 --seconds 10 \\
        enum-suite enum-jobs2 compile-suite serve-enum

Run from the repository root. Results are also appended as JSON lines to
--out (default: $CARGO_TARGET_DIR/perfbench-steadiness.jsonl).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_path = args.out or os.path.join(target, "perfbench-steadiness.jsonl")

    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(out_path, "a") as out:
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": result}) + "\n")
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed} reported incorrect outputs")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {len(args.seeds)} runs of {seconds} s")
        print(f"| metric | median | spread | bound |")
        print(f"|---|---|---|---|")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"| {name} | {med:.6g} | {spread:.2%} | "
                  f"{bounds.get(name, float('nan')):.0%} |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
