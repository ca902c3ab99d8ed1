#!/usr/bin/env python3
"""Builds and runs selin's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root.  Configures and builds perfbench/ (the library
from src/ plus the benchmark program in perfbench/src) in Release under
.bench_build/perfbench, runs one workload, checks that the program's result
names every metric BENCHMARK.json lists for the mode, and prints the result
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of the workload; --trace 1 is the
traced run, which reports every per-layer metric and writes spans to
.bench_build/perfbench/spans/.  Build output and diagnostics go to standard
error.  Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "selin_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds selin_perfbench; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "selin_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    if not build():
        return 1
    span_dir = os.path.join(BUILD, "spans")
    os.makedirs(span_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--span-dir", span_dir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        print("perfbench: selin_perfbench exited with %d" % done.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    missing = [m for m in expected_metrics(args.trace)
               if m not in result["metrics"]]
    if missing:
        sys.stderr.write(done.stdout)
        print("perfbench: result lacks metrics: " + ", ".join(missing),
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
