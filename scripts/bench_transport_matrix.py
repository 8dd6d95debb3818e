#!/usr/bin/env python3
"""Drive the bench_transport loss x delay matrix and check its invariants.

Usage:
    scripts/bench_transport_matrix.py [--bench PATH] [--quick]
        [--out DIR] [--keep-json]

Runs the `bench_transport` binary (adaptive sender vs the fixed-RTO
baseline, virtual-clock simulation; see bench/bench_transport.cpp), prints
the matrix as a table (goodput, efficiency gain, and each sender's window
cuts and undos per run, seed-averaged), and enforces the E10 acceptance
invariants:

  * at 0% loss the adaptive sender's goodput is competitive with the
    unwindowed fixed-RTO baseline (ratio >= 0.90 full, >= 0.50 --quick —
    the short quick run doesn't amortize slow-start);
  * at the lossiest cell with 20 ms delay the retransmit-efficiency gain
    (fixed overhead / adaptive overhead, 1% floor) is >= 2x
    (>= 1.5x under --quick, which averages fewer seeds).

Exit code 1 when an invariant fails.  The emitted BENCH_transport.json is
the same file bench_compare.py diffs against bench/baselines/, so a later
regression in the gated *_ratio keys is caught by both paths.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path


def parse_cell(name):
    """'loss=5%/delay=20ms/adaptive' -> (5.0, 20, 'adaptive') or None."""
    parts = name.split("/")
    if len(parts) != 3:
        return None
    try:
        loss = float(parts[0].removeprefix("loss=").rstrip("%"))
        delay = int(parts[1].removeprefix("delay=").rstrip("ms"))
    except ValueError:
        return None
    return loss, delay, parts[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", type=Path,
                        default=Path("build/bench/bench_transport"),
                        help="bench_transport binary")
    parser.add_argument("--quick", action="store_true",
                        help="forwarded to the bench; relaxes thresholds")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to run in / leave the JSON "
                             "(default: the binary's directory)")
    args = parser.parse_args()

    bench = args.bench.resolve()
    if not bench.exists():
        print(f"error: bench binary not found: {bench}", file=sys.stderr)
        return 2
    run_dir = args.out if args.out is not None else bench.parent
    run_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(bench)] + (["--quick"] if args.quick else [])
    proc = subprocess.run(cmd, cwd=run_dir)
    if proc.returncode != 0:
        print(f"error: {' '.join(cmd)} exited {proc.returncode}",
              file=sys.stderr)
        return proc.returncode

    report = run_dir / "BENCH_transport.json"
    with report.open() as f:
        doc = json.load(f)
    rows = {b["name"]: b for b in doc.get("benchmarks", [])}

    cells = {}
    for name, metrics in rows.items():
        parsed = parse_cell(name)
        if parsed is None:
            continue
        loss, delay, kind = parsed
        cells.setdefault((loss, delay), {})[kind] = metrics

    print(f"\n{'cell':>18} {'fixed goodput/s':>16} {'adaptive':>10} "
          f"{'goodput ratio':>14} {'eff gain':>9} "
          f"{'fixed cuts/undos':>17} {'adaptive cuts/undos':>20}")
    failures = []
    min_goodput_ratio = 0.50 if args.quick else 0.90
    min_gain = 1.5 if args.quick else 2.0
    def cuts(row):
        return (f"{row.get('window_cuts', float('nan')):.1f}/"
                f"{row.get('window_undos', float('nan')):.1f}")

    for (loss, delay), kinds in sorted(cells.items()):
        summary = kinds.get("summary", {})
        ratio = summary.get("goodput_vs_fixed_x")
        gain = summary.get("efficiency_gain_x")
        fixed = kinds.get("fixed", {})
        adaptive = kinds.get("adaptive", {})
        print(f"{f'loss={loss:g}% d={delay}ms':>18} "
              f"{fixed.get('goodput_msg_rate', 0):>16.0f} "
              f"{adaptive.get('goodput_msg_rate', 0):>10.0f} "
              f"{ratio if ratio is not None else float('nan'):>14.3f} "
              f"{gain if gain is not None else float('nan'):>8.2f}x "
              f"{cuts(fixed):>17} {cuts(adaptive):>20}")
        if loss == 0 and ratio is not None and ratio < min_goodput_ratio:
            failures.append(
                f"goodput ratio {ratio:.3f} < {min_goodput_ratio} at "
                f"0% loss / {delay}ms delay")

    lossy = [k for k in cells if k[0] > 0 and k[1] == 20]
    if lossy:
        worst = max(lossy)  # highest loss at 20ms delay
        gain = cells[worst].get("summary", {}).get("efficiency_gain_x")
        if gain is None or gain < min_gain:
            failures.append(
                f"efficiency gain {gain} < {min_gain}x at "
                f"loss={worst[0]:g}% / {worst[1]}ms delay")
    elif cells:
        failures.append("no lossy 20ms cell found in the matrix")
    else:
        failures.append(f"no matrix cells parsed from {report}")

    if failures:
        print(f"\n{len(failures)} invariant failure(s):", file=sys.stderr)
        for f_ in failures:
            print(f"  FAIL {f_}", file=sys.stderr)
        return 1
    print("\nall transport-matrix invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
