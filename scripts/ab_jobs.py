#!/usr/bin/env python3
"""Per-job A/B timing of two checkouts, interleaved in one process.

    python3 scripts/ab_jobs.py PARENT_DIR CHANGE_DIR --workload many-objects \\
        --rounds 10 [--seed 1]

Each checkout's ``src/hopfcat`` is imported under a package name of its own
(``hopfcat_parent``, ``hopfcat_change``), so both live in this process at
once.  Naming one checkout twice is the A/A run: the spread it prints is
what a claim's ratio is read against.

A job is a timed call and a check of its outcome.  The workloads of the
benchmark (``hom-dim``, ``dense-fp``, ``many-objects``) are lists of
``cli.main`` calls, built for ``--seed`` (default 1) by the ``build`` of
each checkout's ``perfbench/workloads.py``, which is imported and never
written, and checked against their known answers by its ``check``.  The
workload ``pair-ladder`` is defined here: for each n in ``SIZES``, the
linearized pair groupoid on n objects over Q (every hom one-dimensional),
and the weak Hopf algebra that ``weak.pack`` makes of it, each written to
a file by each side's own library.  On the groupoid it times
``fileformat.load`` of the file, ``core.verify_structure`` at level 'hopf',
``fileformat.serialize`` and ``cli.main`` on ``verify --strictness
--antipode-theorems --report``; on the algebra ``weak.pack`` of the
groupoid, ``weak.verify_weak_hopf``, ``serialize`` and ``load``.  Loading,
serializing and packing must give back what was written, and each verifier
must pass.  ``--seed`` does not change it.

Each side builds and writes its inputs under its checkout's
``.perfbench_work/ab_jobs/<side>/<workload>``, so an A/A run keeps two
sets.  Each side writes its inputs with its own library, so the script
refuses to time two checkouts whose inputs differ in bytes: a change to
the writer would otherwise time each side on different data.

A round runs every job of the workload on both sides, job by job: the
parent first in even rounds and the change first in odd ones, so that a
drift in the machine's speed does not always favour one side.  A wrong
outcome on either side stops the script with exit code 1.  Each job runs
after a ``gc.collect()``, outside its timed region.  Once both sides are
built, the rounds run under ``gc.freeze()``: everything alive then (both
libraries, both sides' inputs, and whatever the calling process holds) is
left out of every later collection, which then scans only what the jobs
allocate.  Both sides run under the same freeze.

It prints each job's median time on each side, the sums of those medians,
and the wins of the change: the jobs whose median is lower, and the rounds
whose total is lower.  Unlike ``scripts/ab_bench.py``, which compares whole
benchmark runs in fresh processes, this sees a change of a few percent on
a shared machine, at the price of measuring warm jobs only: no set-up, no
import and no peak RSS.  Compare numbers within one run of the script
only: the machine's speed drifts between sessions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import io
import os
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

MODULES = ("cli", "core", "dual", "duoidal", "fileformat", "fixtures",
           "fundamental", "graded", "groupoid", "linalg", "modules",
           "report", "scalars", "weak")
LADDER = "pair-ladder"
SIZES = (8, 12, 16)


def library(label: str, checkout: str) -> SimpleNamespace:
    """The modules of ``checkout``'s ``src/hopfcat``, imported as the
    package ``hopfcat_<label>``."""
    pkg = f"hopfcat_{label}"
    for name in [m for m in sys.modules
                 if m == pkg or m.startswith(pkg + ".")]:
        del sys.modules[name]       # another checkout's, from an earlier call
    src = os.path.join(checkout, "src", "hopfcat")
    load_module(pkg, os.path.join(src, "__init__.py"), src)
    return SimpleNamespace(**{
        sub: importlib.import_module(f"{pkg}.{sub}") for sub in MODULES})


def load_module(name: str, path: str, package: str | None = None):
    """The module in ``path`` (a package's ``__init__.py`` when
    ``package`` names its directory), imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=package and [package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@dataclass
class Job:
    """``call(prepare())``, or ``call()`` when there is nothing to prepare,
    is timed; ``check`` of its result is why the outcome is wrong, or
    None."""

    label: str
    call: Callable
    check: Callable
    prepare: Callable | None = None


def equal(want):
    """The check that a result equals ``want``."""
    return lambda got: None if got == want else "not what was written"


def passes(report):
    return None if report.overall else "fails"


def exits_0(code):
    return None if code == 0 else f"exit {code}"


def ladder_jobs(lib, root: str):
    """(jobs, digest of the files written) of ``pair-ladder``."""
    ff, jobs, digest = lib.fileformat, [], hashlib.sha256()
    os.makedirs(root)

    def write(name: str, obj):
        path = os.path.join(root, name + ".hc")
        ff.save(path, obj)
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(data)
        return path, data.decode()

    for n in SIZES:
        cat = lib.groupoid.linearize_groupoid(lib.groupoid.pair_groupoid(
            tuple(f"x{i}" for i in range(n))), lib.scalars.QQ)
        w = lib.weak.pack(cat)
        path, text = write(f"pair{n}", cat)
        packed, packed_text = write(f"packed{n}", w)
        read, read_packed = partial(ff.load, path), partial(ff.load, packed)
        argv = ["--report", os.path.join(root, "report.jsonl"), "verify",
                "--strictness", "--antipode-theorems", path]
        jobs += [
            Job(f"{n} load", read, equal(cat)),
            Job(f"{n} verify_structure",
                partial(lib.core.verify_structure, level="hopf"), passes,
                read),
            Job(f"{n} serialize", ff.serialize, equal(text), read),
            Job(f"{n} verify", partial(lib.cli.main, argv), exits_0),
            Job(f"{n} packed pack", partial(lib.weak.pack, cat), equal(w)),
            Job(f"{n} packed verify_weak_hopf", lib.weak.verify_weak_hopf,
                passes, read_packed),
            Job(f"{n} packed serialize", ff.serialize, equal(packed_text),
                read_packed),
            Job(f"{n} packed load", read_packed, equal(w))]
    return jobs, digest.hexdigest()


class Side:
    """One checkout: its library, its jobs and their times."""

    def __init__(self, label: str, checkout: str, workload: str, seed: int):
        self.label = label
        lib = library(label, checkout)
        root = os.path.join(checkout, ".perfbench_work", "ab_jobs", label,
                            workload)
        shutil.rmtree(root, ignore_errors=True)
        if workload == LADDER:
            self.jobs, self.digest = ladder_jobs(lib, root)
        else:
            workloads = load_module(
                f"workloads_{label}",
                os.path.join(checkout, "perfbench", "workloads.py"))
            jobs, files = workloads.build(lib, workload, root, seed)
            self.jobs = [Job(job.label, partial(lib.cli.main, job.argv),
                             partial(workloads.check, job)) for job in jobs]
            self.digest = files.digest()
        self.times = [[] for _ in self.jobs]

    def run(self, i: int) -> float:
        """Run job ``i``; its time, after checking its outcome."""
        job, sink = self.jobs[i], io.StringIO()
        args = () if job.prepare is None else (job.prepare(),)
        gc.collect()
        with redirect_stdout(sink), redirect_stderr(sink):
            t0 = perf_counter()
            out = job.call(*args)
            t = perf_counter() - t0
        why = job.check(out)
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
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.rounds < 3:
        p.error("--rounds must be at least 3 for a median")
    parent = Side("parent", args.parent, args.workload, args.seed)
    change = Side("change", args.change, args.workload, args.seed)
    if [j.label for j in parent.jobs] != [j.label for j in change.jobs]:
        sys.exit("the two checkouts build different job lists")
    if parent.digest != change.digest:
        sys.exit("the two checkouts write different input bytes "
                 f"(digest {parent.digest[:12]} against "
                 f"{change.digest[:12]})")
    round_wins = 0
    gc.collect()
    gc.freeze()     # what is alive now is never scanned again
    try:
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
    finally:
        gc.unfreeze()
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
