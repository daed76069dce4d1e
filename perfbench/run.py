#!/usr/bin/env python3
"""Builds the benchmark from source (Release) and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR if set,
else .bench_build; build output goes to stderr. The benchmark's stdout is
passed through, and its last line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is non-zero if the
build fails, a correctness check fails, or the result line is malformed.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "helios_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def check_result_line(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    if result["attempted"] < 1 or not result["correct"]:
        return "run not correct"
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(out, "helios_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    problem = check_result_line(proc.stdout)
    if proc.returncode != 0 or problem:
        print("perfbench: %s (exit %d)" % (problem or "failed", proc.returncode), file=sys.stderr)
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
