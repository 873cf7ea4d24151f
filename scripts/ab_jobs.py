#!/usr/bin/env python3
"""Per-job A/B timing of two checkouts, interleaved in one process.

    python3 scripts/ab_jobs.py PARENT_DIR CHANGE_DIR --workload many-objects \\
        --rounds 10

Each checkout's ``src/hopfcat`` is imported under a package name of its own
(``hopfcat_parent``, ``hopfcat_change``), so both live in this process at
once.  Each side's inputs are built once, for seed 1, under that checkout's
``.perfbench_work/ab_jobs/``, by the ``build`` of its
``perfbench/workloads.py``, which is imported and never written.

A round runs every job of the workload on both sides, job by job: the
parent first in even rounds and the change first in odd ones, so that a
drift in the machine's speed does not always favour one side.  Every
outcome is checked against its known answer (``workloads.check``); a wrong
one stops the script with exit code 1.

It prints each job's median time on each side, the sums of those medians,
and the wins of the change: the jobs whose median is lower, and the rounds
whose total is lower.  Unlike ``scripts/ab_bench.py``, which compares whole
benchmark runs in fresh processes, this sees a change of a few percent on
a shared machine, at the price of measuring warm jobs only: no set-up, no
import and no peak RSS.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import io
import os
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter
from types import SimpleNamespace

MODULES = ("cli", "core", "dual", "duoidal", "fileformat", "fixtures",
           "fundamental", "graded", "groupoid", "linalg", "modules",
           "report", "scalars", "weak")


def load_module(name: str, path: str, package: str | None = None):
    """The module in ``path`` (a package's ``__init__.py`` when
    ``package`` names its directory), imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=package and [package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One checkout: its library, its workload module, its jobs."""

    def __init__(self, label: str, checkout: str, workload: str):
        self.label = label
        pkg = f"hopfcat_{label}"
        src = os.path.join(checkout, "src", "hopfcat")
        load_module(pkg, os.path.join(src, "__init__.py"), src)
        self.lib = SimpleNamespace(**{
            sub: importlib.import_module(f"{pkg}.{sub}") for sub in MODULES})
        self.workloads = load_module(
            f"workloads_{label}",
            os.path.join(checkout, "perfbench", "workloads.py"))
        root = os.path.join(checkout, ".perfbench_work", "ab_jobs", workload)
        shutil.rmtree(root, ignore_errors=True)
        self.jobs, _ = self.workloads.build(self.lib, workload, root, 1)
        self.times = [[] for _ in self.jobs]

    def run(self, i: int) -> float:
        """Run job ``i``; its time, after checking its outcome."""
        job, sink = self.jobs[i], io.StringIO()
        gc.collect()
        with redirect_stdout(sink), redirect_stderr(sink):
            t0 = perf_counter()
            code = self.lib.cli.main(job.argv)
            t = perf_counter() - t0
        why = self.workloads.check(job, code)
        if why is not None:
            sys.exit(f"{self.label}: {job.label}: {why}\n{sink.getvalue()}")
        self.times[i].append(t)
        return t


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--rounds", type=int, required=True)
    args = p.parse_args(argv)
    if args.rounds < 3:
        p.error("--rounds must be at least 3 for a median")
    parent = Side("parent", args.parent, args.workload)
    change = Side("change", args.change, args.workload)
    if [j.label for j in parent.jobs] != [j.label for j in change.jobs]:
        sys.exit("the two checkouts build different job lists")
    round_wins = 0
    for r in range(args.rounds):
        totals = {parent: 0.0, change: 0.0}
        for i in range(len(parent.jobs)):
            for side in ((parent, change) if r % 2 == 0
                         else (change, parent)):
                totals[side] += side.run(i)
        round_wins += totals[change] < totals[parent]
        print(f"round {r + 1}/{args.rounds}: parent "
              f"{1000 * totals[parent]:.1f} ms, change "
              f"{1000 * totals[change]:.1f} ms", flush=True)
    width = max(len(job.label) for job in parent.jobs)
    print(f"{'job':{width}s} {'parent ms':>10s} {'change ms':>10s} "
          f"{'diff':>7s}")
    sums, job_wins = [0.0, 0.0], 0
    for job, tp, tc in zip(parent.jobs, parent.times, change.times):
        mp, mc = statistics.median(tp), statistics.median(tc)
        sums[0] += mp
        sums[1] += mc
        job_wins += mc < mp
        print(f"{job.label:{width}s} {1000 * mp:10.2f} {1000 * mc:10.2f} "
              f"{100 * (mc - mp) / mp:+6.1f}%")
    print(f"{'sum of medians':{width}s} {1000 * sums[0]:10.2f} "
          f"{1000 * sums[1]:10.2f} {100 * (sums[1] - sums[0]) / sums[0]:+6.1f}%")
    print(f"change wins {job_wins}/{len(parent.jobs)} jobs by median, "
          f"{round_wins}/{args.rounds} rounds by total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
