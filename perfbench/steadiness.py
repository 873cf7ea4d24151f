#!/usr/bin/env python3
"""Spread of each end-to-end metric over repeated benchmark runs.

    python3 perfbench/steadiness.py

Runs the command from BENCHMARK.json on every workload once per seed 1..10,
one run at a time, and prints for each workload and end-to-end metric the
median and the distance between the first and third quartiles as a share of
the median, next to the metric's bound.  The raw results go to
``.perfbench_work/steadiness.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    results = {}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, RUNS + 1):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=180)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        results[workload] = values
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"{workload:13s} {m['name']:12s} median {med:12.4f} "
                  f"{m['unit']:3s} spread {spread:7.2%} bound {m['bound']:.0%}"
                  f"{'' if spread < m['bound'] / 3 else '  (over a third)'}",
                  flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_work", "steadiness.json"),
              "w") as fh:
        json.dump(results, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
