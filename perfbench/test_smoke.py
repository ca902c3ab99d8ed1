#!/usr/bin/env python3
"""Smoke test of selin_perfbench: every workload at smoke size.

    python3 perfbench/test_smoke.py [path/to/selin_perfbench]

Without an argument it builds selin_perfbench first (as run.py does).  Each
workload runs untraced, then one traced run covers every workload; each
result must be correct with zero failed operations, name every metric that
BENCHMARK.json lists for its mode, and show that the verdict gates saw both
accepted and rejected sessions (or detected lossy objects).  The traced run
must also write a span file per workload.  Run from the repository root, or
through ctest in the perfbench build.
"""

import json
import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = {
    "wire_paced": "rejected=",
    "service_wide": "rejected=",
    "enforced": "lossy_detected=",
}


def count_after(text, key):
    """The integer after `key` on the first line that has it, else -1."""
    for line in text.splitlines():
        at = line.find(key)
        if at >= 0:
            return int(line[at + len(key):].split()[0])
    return -1


def run_bench(binary, workload, trace, span_dir):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", str(trace), "--smoke", "--span-dir", span_dir]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    assert done.returncode == 0, (cmd, done.returncode)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    want = run.expected_metrics(trace)
    missing = [m for m in want if m not in result["metrics"]]
    assert not missing, (workload, trace, missing)
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, (name, m)
        assert isinstance(m["value"], (int, float)), (name, m)
    return done.stdout, result


def main():
    if len(sys.argv) > 1:
        binary = os.path.abspath(sys.argv[1])
    else:
        if not run.build():
            return 1
        binary = run.BINARY
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) \
            as span_dir:
        for workload, key in WORKLOADS.items():
            out, result = run_bench(binary, workload, 0, span_dir)
            assert count_after(out, key) > 0, (workload, key, out)
            for name in ("verified_per_s", "setup_s", "call_p50_us"):
                assert result["metrics"][name]["value"] > 0, (workload, name)
            print("ok  %s untraced: %d ops" % (workload, result["attempted"]))
        out, result = run_bench(binary, "enforced", 1, span_dir)
        for workload in WORKLOADS:
            assert (workload + ": sessions=") in out or \
                (workload + ": objects=") in out, (workload, out)
            assert "trace.overhead_frac." + workload in result["metrics"]
            with open(os.path.join(span_dir, workload + ".spans")) as f:
                header = f.readline().strip()
                assert header == "name,parent,id,start_ns,end_ns", header
                assert f.readline().count(",") == 4, workload
        assert result["metrics"]["net.throttle_frac"]["value"] == 0
        print("ok  traced run: %d per-layer metrics" % len(result["metrics"]))
    # A bad invocation is a usage error, not a result.
    bad = subprocess.run([binary, "--workload", "nope", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    assert bad.returncode == 2 and not bad.stdout, bad
    print("ok  usage error")
    return 0


if __name__ == "__main__":
    sys.exit(main())
