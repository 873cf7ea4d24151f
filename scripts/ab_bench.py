#!/usr/bin/env python3
"""A/B pairs of benchmark runs: a parent checkout against a changed one.

    python3 scripts/ab_bench.py PARENT_DIR CHANGE_DIR --workload many-objects \\
        --pairs 10 --seconds 35

Pair n, for n = 1 .. N, runs ``perfbench/run.py --workload W --seed n
--seconds S --trace 0`` once in each checkout, one after the other in fresh
processes; odd pairs run the parent first and even pairs the change first,
so that a drift in the machine's speed does not always favour the same
side.  Each run writes only under its own checkout's ``.perfbench_work/``.
With ``--seed K`` every pair runs seed K instead: the seeds of a workload
draw inputs whose passes cost reproducibly different amounts, so over seeds
1 .. N the parent's IQR is mostly the seed mix, and one seed leaves only
the machine's own spread.

For each end-to-end metric of ``BENCHMARK.json`` it prints the median of
each side, the parent's quartiles and their distance (IQR), the change in
the median, and in how many pairs the change was better.  A claimed gain
holds when the change wins nearly every pair and the medians differ by more
than the parent's IQR.  Any run that fails or reports incorrect jobs stops
the script with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The metric values of one untraced benchmark run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct") \
            or result.get("failed"):
        sys.exit(f"run failed in {checkout} (seed {seed}, exit "
                 f"{proc.returncode}):\n{proc.stdout[-2000:]}"
                 f"{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list) -> tuple:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(metrics: list, parent: list, change: list) -> list:
    """One line per metric: medians, parent quartiles, wins of the change."""
    lines = [f"{'metric':14s} {'parent':>10s} {'change':>10s} {'diff':>8s} "
             f"{'parent q1..q3':>21s} {'IQR':>8s} {'wins':>6s}  median gap"]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        mp, mc = statistics.median(p), statistics.median(c)
        q1, q3 = quartiles(p)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        gain = (mp - mc) if lower else (mc - mp)
        diff = 100 * (mc - mp) / mp if mp else 0.0
        lines.append(
            f"{name:14s} {mp:10.4f} {mc:10.4f} {diff:+7.1f}% "
            f"{q1:10.4f}..{q3:<10.4f} {q3 - q1:8.4f} {wins:3d}/{len(p):<2d}"
            f"  {'exceeds' if gain > q3 - q1 else 'within'} IQR")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--seed", type=int, default=None,
                   help="run every pair on this seed (default: pair n "
                        "runs seed n)")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2 for quartiles")
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = [], []
    for n in range(1, args.pairs + 1):
        seed = n if args.seed is None else args.seed
        sides = [(args.parent, parent), (args.change, change)]
        for checkout, runs in (sides if n % 2 else sides[::-1]):
            runs.append(run_once(checkout, args.workload, seed,
                                 args.seconds))
        print(f"pair {n}/{args.pairs} seed {seed}: wall_s parent "
              f"{parent[-1]['wall_s']:.4f} change {change[-1]['wall_s']:.4f}",
              flush=True)
    print("\n".join(summary(metrics, parent, change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
