#!/usr/bin/env python3
"""Builds the pose benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload enum-suite --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Build output goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), scratch
stores, sockets and traces to $CARGO_TARGET_DIR/perfbench-run. See
perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("enum-suite", "enum-jobs2", "compile-suite", "serve-enum")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds pose_perfbench, posec and posed."""
    for needed in ("src/CMakeLists.txt", "tools/posed.cpp", "tools/posec.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"pose sources not found: {needed} is missing next to perfbench/")
    log_path = build_dir + ".log"
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if _have("ninja") else []
            cfg = subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"] + gen,
                stdout=log, stderr=subprocess.STDOUT)
            if cfg.returncode != 0:
                _dump(log_path)
                fail("configuring the benchmark failed")
        made = subprocess.run(
            ["cmake", "--build", build_dir, "-j3",
             "--target", "pose_perfbench", "posed", "posec"],
            stdout=log, stderr=subprocess.STDOUT)
    if made.returncode != 0:
        _dump(log_path)
        fail("building the benchmark failed")


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def _dump(log_path):
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-40:]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--expected", default=os.path.join(HERE, "expected", "suite.tsv"),
                    help="expected outputs (default: perfbench/expected/suite.tsv)")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in 1..600")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.relpath(os.path.abspath(target))
    build_dir = os.path.join(target, "perfbench")
    build(build_dir)

    work_dir = os.path.join(target, "perfbench-run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [
        os.path.join(build_dir, "pose_perfbench"),
        f"--workload={args.workload}", f"--seed={args.seed}",
        f"--seconds={args.seconds}", f"--trace={args.trace}",
        f"--expected={args.expected}",
        f"--posed={os.path.join(build_dir, 'pose_tools', 'posed')}",
        f"--work-dir={work_dir}",
        f"--trace-out={os.path.join(work_dir, f'trace-{args.workload}-{args.seed}.jsonl')}",
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(out.decode())
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")


if __name__ == "__main__":
    main()
