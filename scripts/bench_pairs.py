#!/usr/bin/env python3
"""Compare two source trees on one benchmark workload in alternating pairs.

Usage:
    scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B
                           [--seconds 20]

Each tree is a checkout of this repository.  For every seed in A..B the
script runs the workload once in each tree through that tree's own
`perfbench/run.py` (which builds the tree's benchmark on first use), the
parent first on even pairs and the change first on odd ones, so slow drift
on the host falls on both sides alike.

The end-to-end metrics and their directions are read from CHANGE_DIR's
BENCHMARK.json (never written).  For each metric the script prints the
parent's and the change's median and interquartile range, the change of the
median in percent (positive = better in the metric's direction), how many
pairs the change won, and whether the medians differ by more than the
parent's IQR.  It also prints the failed and attempted operations of each
side.

Exits 1 when a run prints no valid result, reports `correct: false`, or
lacks a declared metric; 2 on bad arguments; 0 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    first, sep, last = text.partition("-")
    try:
        lo = int(first)
        hi = int(last) if sep else lo
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed range '{text}'")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range '{text}'")
    return list(range(lo, hi + 1))


def run_once(tree, workload, seed, seconds):
    """Runs one benchmark in `tree`; returns (result dict, error text)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return None, f"exit {proc.returncode}: {tail}"
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, "last line is not JSON"
    if not isinstance(result, dict) or "metrics" not in result:
        return None, "no metrics in result"
    return result, None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="inclusive range, e.g. 3101-3110")
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()

    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as f:
        declared = json.load(f)["end_to_end"]
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    runs = {"parent": [], "change": []}
    bad = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, error = run_once(sides[side], args.workload, seed,
                                     args.seconds)
            if error is None and result.get("correct") is not True:
                error = "correct is not true"
            if error is None:
                missing = [m["name"] for m in declared
                           if m["name"] not in result["metrics"]]
                if missing:
                    error = "missing " + ", ".join(missing)
            if error is not None:
                bad.append(f"{side} seed {seed}: {error}")
                result = None
            runs[side].append(result)
            print(f"pair {i + 1}/{len(args.seeds)} seed {seed} {side}: "
                  + ("FAILED" if result is None else "ok"),
                  file=sys.stderr, flush=True)

    pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"])
             if p is not None and c is not None]
    print(f"{args.workload}: {len(pairs)} complete pairs of "
          f"{len(args.seeds)}, seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"{args.seconds:g} s each")
    print(f"{'metric':<12} {'parent median [IQR]':>34} "
          f"{'change median [IQR]':>34} {'change':>8} {'won':>7} "
          f"{'> IQR':>6}")
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        if not pairs:
            break
        p = [r["metrics"][name]["value"] for r, _ in pairs]
        c = [r["metrics"][name]["value"] for _, r in pairs]
        pm, cm = statistics.median(p), statistics.median(c)
        (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
        gain = (pm - cm) / pm if lower else (cm - pm) / pm
        won = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
        beyond = "yes" if abs(cm - pm) > p3 - p1 else "no"
        ptext = f"{pm:.6g} [{p1:.6g}-{p3:.6g}]"
        ctext = f"{cm:.6g} [{c1:.6g}-{c3:.6g}]"
        print(f"{name:<12} {ptext:>34} {ctext:>34} {100 * gain:>+7.2f}% "
              f"{won:>3}/{len(pairs):<3} {beyond:>6}")
    for side in ("parent", "change"):
        done = [r for r in runs[side] if r is not None]
        print(f"{side}: {sum(r['failed'] for r in done)} failed of "
              f"{sum(r['attempted'] for r in done)} attempted operations")
    for line in bad:
        print("error: " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
