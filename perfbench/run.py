#!/usr/bin/env python3
"""The hopfcat benchmark: seeded workloads run through ``hopfcat.cli.main``.

    python3 perfbench/run.py --workload hom-dim --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

One run is one workload in one process, a closed loop with one client: the
jobs run one after another, with no threads.  The run repeats *passes* over
the fixed job list until ``--seconds`` are used, checking every job against
its known answer.  Before each pass of an untraced run (before the first
only, in a traced one) it sets up afresh, ``SETUPS_PER_PASS`` times after
the first pass: a fresh import of ``hopfcat`` plus generating and writing
every input file, which must give the same bytes every time.

Every time the benchmark reports is scaled to a reference speed of the
machine.  The shared machine it was written on runs the same Python code up
to 1.6 times slower in some stretches than in others, stretches that last
from seconds to minutes, so raw times of two runs of the same code differ by
more than the changes they are meant to show.  So a fixed piece of pure-Python
work (``kernel``) is timed right before and right after each job and each
set-up, and the raw time is multiplied by ``REFERENCE_S`` over the mean of
the two kernel times: what the job would take on a machine where the kernel
takes ``REFERENCE_S``.  The unscaled ``wall_s`` is printed too.

With ``--trace 0`` it reports the end-to-end metrics:

- ``wall_s``: time to finish the job list, the sum over its jobs of each
  job's time;
- ``job_p50_ms`` and ``job_tail_ms``: the median, and the highest percentile
  with at least ten jobs beyond it, of the job times;
- ``peak_rss_mb``: peak resident set size of the process;
- ``setup_s``: the median set-up time over the run's set-ups.

A job's time is the median over the passes of its scaled time.

With ``--trace 1`` the job list also holds a small tour of jobs that calls
every traced function (see ``workloads.tour``).  Its passes alternate
between untraced and traced ones, and it reports per-layer metrics
(the median over traced passes of each per-pass value, every span scaled
like the job it belongs to), per-module self times, and
``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The failed share
(failed / attempted) is printed above it; any failed job fails the run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "job_p50_ms": "ms", "job_tail_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}

MODULES = ("cli", "fileformat", "core", "linalg", "report", "weak", "dual",
           "duoidal", "groupoid", "graded", "modules", "fundamental")

# per-layer metric -> (unit, how it is read from one pass's aggregate)
PER_LAYER = {
    "cli.job_ms": ("ms", ("incl", "cli.main")),
    "fileformat.parse_calls": ("count", ("calls", "fileformat.parse")),
    "fileformat.parse_ms": ("ms", ("incl", "fileformat.parse")),
    "fileformat.serialize_ms": ("ms", ("incl", "fileformat.serialize")),
    "fileformat.bytes_read": ("bytes", ("count", "fileformat.bytes_read")),
    "fileformat.bytes_written": ("bytes",
                                 ("count", "fileformat.bytes_written")),
    "core.validate_shape_ms": ("ms", ("incl", "core.validate_shape")),
    "core.map_build_calls": ("count", ("calls", "core.map_build")),
    "core.map_build_ms": ("ms", ("incl", "core.map_build")),
    "core.verify_category_ms": ("ms", ("level", "category")),
    "core.verify_coalgebra_ms": ("ms", ("level", "semihopf")),
    "core.verify_antipode_ms": ("ms", ("level", "hopf")),
    "core.antipode_theorems_ms": ("ms", ("incl", "core.antipode_theorems")),
    "core.strictness_ms": ("ms", ("incl", "core.strictness")),
    "linalg.matmul_calls": ("count", ("calls", "linalg.matmul")),
    "linalg.matmul_ms": ("ms", ("incl", "linalg.matmul")),
    "linalg.kron_calls": ("count", ("calls", "linalg.kron")),
    "linalg.kron_ms": ("ms", ("incl", "linalg.kron")),
    "linalg.linmaps_built": ("count", ("count", "linalg.linmaps_built")),
    "linalg.entries_materialized": ("count",
                                    ("count", "linalg.entries_materialized")),
    "linalg.rref_calls": ("count", ("calls", "linalg.rref")),
    "linalg.rref_ms": ("ms", ("incl", "linalg.rref")),
    "scalars.fp_elements_built": ("count",
                                  ("count", "scalars.fp_elements_built")),
    "report.check_calls": ("count", ("calls", "report.check")),
    "report.check_ms": ("ms", ("incl", "report.check")),
    "report.items": ("count", ("count", "report.items")),
    "report.failed_items": ("count", ("count", "report.failed_items")),
    "weak.pack_ms": ("ms", ("incl", "weak.pack")),
    "weak.verify_ms": ("ms", ("incl", "weak.verify")),
    "weak.basis_triples": ("count", ("count", "weak.basis_triples")),
    "dual.dualize_ms": ("ms", ("incl", "dual.dualize")),
    "dual.verify_ms": ("ms", ("incl", "dual.verify")),
    "duoidal.verify_bimonoid_ms": ("ms", ("incl", "duoidal.verify_bimonoid")),
    "groupoid.linearize_ms": ("ms", ("incl", "groupoid.linearize")),
    "graded.lift_ms": ("ms", ("incl", "graded.lift")),
    "modules.verify_ms": ("ms", ("incl", "modules.verify")),
    "fundamental.recover_ms": ("ms", ("incl", "fundamental.recover")),
    "fundamental.can_ranks_ms": ("ms", ("incl", "fundamental.can_ranks")),
    "fundamental.integrals_ms": ("ms", ("incl", "fundamental.integrals")),
    "fundamental.build_can_calls": ("count",
                                    ("calls", "fundamental.build_can")),
}
PER_LAYER.update({f"{m}.self_ms": ("ms", ("self", m)) for m in MODULES})
PER_LAYER["trace.overhead_s"] = ("s", None)

# The time ``kernel`` takes at the reference speed: about its fastest on the
# 2-core machine the benchmark was written on.
REFERENCE_S = 0.0025
KERNEL_PRIME = (1 << 61) - 1

# Set-ups made before each pass after the first of an untraced run; the jobs
# run on the last of them.
SETUPS_PER_PASS = 3


def kernel() -> int:
    """Fixed pure-Python work of the kinds hopfcat does, independent of it:
    a product of small matrices over Q (``Fraction``) and one over the
    integers modulo 2^61-1, nested lists, and a dict keyed by tuples."""
    n = 10
    a = [[Fraction((i * 7 + j * 3) % 5 - 2, 1 + (i + j) % 3) if (i + j) % 3
          else 0 for j in range(n)] for i in range(n)]
    b = [[(i * j) % 3 - 1 for j in range(n)] for i in range(n)]
    c = [[(i * 1000003 + j * 7919) ** 3 % KERNEL_PRIME for j in range(n)]
         for i in range(n)]
    out = [[0] * n for _ in range(n)]
    mod = [[0] * n for _ in range(n)]
    for i in range(n):
        ai, oi, ci, mi = a[i], out[i], c[i], mod[i]
        for k in range(n):
            x, z, bk, ck = ai[k], ci[k], b[k], c[k]
            for j in range(n):
                y = bk[j]
                if x and y:
                    oi[j] += x * y
                mi[j] = (mi[j] + z * ck[j]) % KERNEL_PRIME
    cells = {(i, j): (out[i][j], mod[i][j]) for i in range(n)
             for j in range(n)}
    return sum(1 for v in cells.values() if v[0] or v[1])


def kernel_time() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def speed_factor(before: float, after: float) -> float:
    """REFERENCE_S over the mean of the kernel times around one timed
    stretch: the factor that scales the stretch to the reference speed."""
    return REFERENCE_S / ((before + after) / 2)


def import_hopfcat() -> SimpleNamespace:
    """Import hopfcat afresh from ``src/`` of this checkout."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules
                 if n == "hopfcat" or n.startswith("hopfcat.")]:
        del sys.modules[name]
    pkg = importlib.import_module("hopfcat")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != \
            os.path.join(SRC, "hopfcat"):
        raise ImportError(f"hopfcat imported from {pkg.__file__}, "
                          f"not from {SRC}")
    lib = {"hopfcat": pkg}
    for sub in ("cli", "core", "dual", "duoidal", "fileformat", "fixtures",
                "fundamental", "graded", "groupoid", "linalg", "modules",
                "report", "scalars", "weak"):
        lib[sub] = importlib.import_module("hopfcat." + sub)
    return SimpleNamespace(**lib)


class Setups:
    """Set-ups of one workload, one at a time, each a fresh import of
    hopfcat plus generating and writing every input in a directory of its
    own; only the latest directory is kept."""

    def __init__(self, workload: str, seed: int, smoke: bool, trace: bool):
        self.args = (workload, seed, smoke, trace)
        self.base = os.path.join(WORK, workload)
        self.times = []
        self.digests = set()
        shutil.rmtree(self.base, ignore_errors=True)

    def next(self):
        """Set up once more; return (lib, jobs, inputs)."""
        workload, seed, smoke, trace = self.args
        root = os.path.join(self.base, f"setup{len(self.times)}")
        gc.collect()
        before = kernel_time()
        t0 = perf_counter()
        lib = import_hopfcat()
        jobs, files = workloads.build(lib, workload, root, seed, smoke,
                                      trace)
        t = perf_counter() - t0
        self.times.append(t * speed_factor(before, kernel_time()))
        self.digests.add(files.digest())
        if len(self.times) > 1:
            shutil.rmtree(os.path.join(self.base,
                                       f"setup{len(self.times) - 2}"))
        with open(os.path.join(root, "inputs.json"), "w") as fh:
            json.dump(files.digests, fh, indent=1, sort_keys=True)
        return lib, jobs, files


def run_job(cli, job):
    """One cli.main call; returns (seconds, exit code or None, error text)."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        t0 = perf_counter()
        try:
            code = cli.main(job.argv)
        except SystemExit as e:       # argparse rejects its arguments
            code = e.code
        except Exception:             # counted as a failed job
            code, sink = None, io.StringIO(traceback.format_exc())
        t1 = perf_counter()
    return t1 - t0, code, sink.getvalue().strip()


class Loop:
    """Passes over the job list, with per-job times and failures."""

    def __init__(self, lib, jobs):
        self.lib = lib
        self.jobs = jobs
        # per job, one entry per pass: scaled and raw seconds
        self.times = [[] for _ in jobs]
        self.raw = [[] for _ in jobs]
        self.scale = {}                     # (pass, job) -> speed factor
        self.passes = 0
        self.attempted = 0
        self.failures = []

    def one_pass(self, tracer=None):
        pass_no = self.passes
        for i, job in enumerate(self.jobs):
            gc.collect()
            if tracer is not None:
                tracer.job = (pass_no, i)
            before = kernel_time()
            t, code, err = run_job(self.lib.cli, job)
            factor = speed_factor(before, kernel_time())
            self.attempted += 1
            why = workloads.check(job, code)
            if why is not None:
                self.failures.append(f"{job.label}: {why}"
                                     + (f" [{err.splitlines()[-1]}]"
                                        if err else ""))
            self.raw[i].append(t)
            self.times[i].append(t * factor)
            self.scale[(pass_no, i)] = factor
        self.passes += 1

    def job_times(self, passes=slice(None), raw=False) -> list:
        """Each job's median time over the given passes."""
        return [statistics.median(ts[passes])
                for ts in (self.raw if raw else self.times)]

    def wall(self, passes=slice(None), raw=False) -> float:
        """Time to finish the job list: the sum of the job times."""
        return sum(self.job_times(passes, raw))

    def run_for(self, seconds: float, tracer=None, setups=None):
        """Whole passes while the next one is expected to end in time; at
        least one.  With ``setups``, every pass after the first runs on a
        set-up of its own, the last of ``SETUPS_PER_PASS`` made before it.  With ``tracer``, the passes alternate between
        untraced (even) and traced (odd) ones, in pairs, so that both kinds
        see the same stretches of the machine's speed."""
        start, spans = perf_counter(), []
        step = 1 if tracer is None else 2
        while True:
            t0 = perf_counter()
            if setups is not None and spans:
                for _ in range(SETUPS_PER_PASS):
                    self.lib, self.jobs, _ = setups.next()
            if len(spans) % 2 and tracer is not None:
                tracer.install()
                try:
                    self.one_pass(tracer)
                finally:
                    tracer.uninstall()
            else:
                self.one_pass()
            t1 = perf_counter()
            spans.append(t1 - t0)
            if len(spans) % step == 0 and \
                    t1 - start + step * statistics.median(spans) > seconds:
                return


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or the maximum when there are fewer than eleven."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(loop: Loop, setup_s: float):
    job_ms = [t * 1000 for t in loop.job_times()]
    tail_ms, pct = tail(job_ms)
    metrics = {
        "wall_s": loop.wall(),
        "job_p50_ms": statistics.median(job_ms),
        "job_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "setup_s": setup_s,
    }
    factors = sorted(loop.scale.values())
    notes = [f"job_tail_ms is p{pct:.1f} of {len(job_ms)} jobs, each the "
             f"median of {loop.passes} passes",
             f"raw wall_s {loop.wall(raw=True):.4f}; speed factors "
             f"{factors[0]:.3f} .. {statistics.median(factors):.3f} .. "
             f"{factors[-1]:.3f} (min .. median .. max)"]
    return metrics, notes


def per_layer(workload: str, tracer, loop: Loop):
    """Per-layer metrics, the self-time tables and the predictions; and
    whether the module self times add up to cli.job_ms and the verify level
    groups to the verify_structure time."""
    aggs = tracer.per_pass(loop.scale)
    metrics = {}
    for name, (unit, source) in PER_LAYER.items():
        if source is None:
            continue
        kind, key = source
        value = statistics.median(aggs[p][kind][key] for p in sorted(aggs))
        metrics[name] = value * 1000 if unit == "ms" else value
    untraced_s = loop.wall(slice(0, None, 2))
    traced_s = loop.wall(slice(1, None, 2))
    metrics["trace.overhead_s"] = traced_s - untraced_s

    # Self times add up to the root span, and the verify level groups to the
    # verify_structure spans, exactly within each pass but not across
    # medians, so the tables show the last traced pass.
    def adds_up(parts, whole):
        return abs(sum(parts.values()) - whole) <= 1e-9 * max(whole, 1.0)
    added_up = all(
        adds_up(agg["self"], agg["incl"]["cli.main"])
        and adds_up(agg["level"], agg["incl"]["core.verify_structure"])
        for agg in aggs.values())
    agg = aggs[max(aggs)]
    job_ms = agg["incl"]["cli.main"] * 1000
    lines = [f"self time per module, last of {len(aggs)} traced passes:"]
    for m in sorted(MODULES, key=lambda m: -agg["self"][m]):
        ms = agg["self"][m] * 1000
        label = m + (" (uncovered: cli.main minus its child spans)"
                     if m == "cli" else "")
        lines.append(f"  {label:58s} {ms:12.2f} ms {100 * ms / job_ms:6.1f}%")
    lines.append(f"  {'sum of self times':58s} "
                 f"{sum(agg['self'].values()) * 1000:12.2f} ms"
                 f"  vs cli.job_ms {job_ms:.2f} ms")
    lines.append("self time per span, same pass:")
    for tag, own in sorted(agg["span_self"].items(), key=lambda kv: -kv[1]):
        lines.append(f"  {tag:34s} calls {agg['calls'][tag]:8d}  "
                     f"inclusive {agg['incl'][tag] * 1000:10.2f} ms  "
                     f"self {own * 1000:10.2f} ms")
    lines.append(f"trace_overhead: traced wall_s {traced_s:.4f} - untraced "
                 f"wall_s {untraced_s:.4f} = {traced_s - untraced_s:.4f} s")
    lines += predictions(workload, agg)
    return metrics, lines, added_up


def predictions(workload: str, agg) -> list:
    """The hypotheses recorded before measuring, next to the measured shares
    of job self time in one traced pass."""
    job = agg["incl"]["cli.main"]

    def share(*tags):
        return 100 * sum(agg["span_self"][t] for t in tags) / job
    out = []
    ff = 100 * agg["self"]["fileformat"] / job
    out.append(f"prediction fileformat < 5% of job self time: {ff:.1f}% "
               + ("holds" if ff < 5 else "refuted"))
    if workload == "hom-dim":
        s = share("linalg.matmul", "linalg.kron")
        out.append(f"prediction matmul + kron >= 80% of job self time: "
                   f"{s:.1f}% " + ("holds" if s >= 80 else "refuted"))
    if workload == "many-objects":
        tags = [t for t in agg["span_self"] if t.startswith("linalg.")]
        top = max(tags, key=share)
        out.append(f"prediction no single linalg call type > 33%: {top} "
                   f"{share(top):.1f}% "
                   + ("holds" if share(top) <= 100 / 3 else "refuted"))
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False):
    """One benchmark run; returns (result dict, human-readable lines)."""
    setups = Setups(workload, seed, smoke, trace)
    lib, jobs, files = setups.next()
    loop = Loop(lib, jobs)
    lines = [f"workload {workload} seed {seed}: {len(jobs)} jobs per pass, "
             f"inputs digest {files.digest()[:16]}"]
    if not trace:
        loop.run_for(seconds, setups=setups)
        metrics, notes = end_to_end(loop, statistics.median(setups.times))
        notes.append(f"setup_s is the median of {len(setups.times)} "
                     f"set-ups, {SETUPS_PER_PASS} before each pass after "
                     "the first")
        lines += notes
        units = END_TO_END
    else:
        tracer = tracing.Tracer(lib)
        loop.run_for(seconds, tracer)
        metrics, more, added_up = per_layer(workload, tracer, loop)
        lines += more
        tracer.write(os.path.join(WORK, workload, "spans.jsonl"))
        if not added_up:
            loop.failures.append("self times do not add up to cli.job_ms, "
                                 "or level groups to verify time")
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    if len(setups.digests) != 1:
        loop.failures.append("set-ups wrote different bytes for one seed")
    failed = len(loop.failures)
    lines += [f"failed_share {failed}/{loop.attempted} = "
              f"{failed / loop.attempted:.4f}"] + loop.failures[:20]
    lines += [f"{name:30s} {value:14.4f} {units[name]}"
              for name, value in metrics.items()]
    result = {"correct": failed == 0, "attempted": loop.attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return result, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one pass of the smallest rung of every workload")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hopfcat", "__init__.py")):
        print(f"error: no hopfcat sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        ok = True
        for name in workloads.WORKLOADS:
            result, lines = run(name, args.seed, 0, bool(args.trace), True)
            print("\n".join(lines))
            ok &= result["correct"]
        return 0 if ok else 1
    if args.workload is None:
        p.error("--workload is required")
    result, lines = run(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
