#!/usr/bin/env python3
"""Builds and runs the dapple benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload wan-rpc --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest

The first call configures and builds the library and the benchmark binary
under .bench_build/ (CMake + Ninja, RelWithDebInfo); later calls only check
that the build is current.  The binary's output is passed through; its last
line is one JSON object with `correct`, `attempted`, `failed` and `metrics`
(the end-to-end metrics for --trace 0, the per-layer ones for --trace 1).  A
traced run also writes its spans to .bench_build/spans/.  --selftest builds
the helper tests and runs them plus a one-second smoke run of every
workload with its oracles on.

Exits non-zero, printing no result, when the build, the run or an output
check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("wan-rpc", "wan-fanout", "wan-session")
RUN_TIMEOUT_S = 170


def build(targets):
    """Configures (once) and builds `targets`; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "build.ninja")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--parallel", "4", "--target", *targets],
        check=True, stdout=sys.stderr)


def check_result(line):
    """True when `line` is a result object of the benchmark contract."""
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1
            and all(isinstance(m, dict) and set(m) == {"value", "unit"}
                    for m in result["metrics"].values()))


def run(args):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in "
              f"{RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not check_result(lines[-1]):
        # Keep the diagnostics, drop the result line.
        sys.stderr.write(proc.stdout)
        print(f"perfbench: {args.workload} failed "
              f"(exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return 0


def selftest():
    build(["perfbench", "perfbench_tests"])
    return subprocess.run(
        ["ctest", "--test-dir", BUILD, "--output-on-failure"]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        build(["perfbench"])
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
