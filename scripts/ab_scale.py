#!/usr/bin/env python3
"""A/B timing of two checkouts on the pair groupoids at scale, in one process.

    python3 scripts/ab_scale.py PARENT_DIR CHANGE_DIR

For each size n in ``SIZES``, each checkout writes the linearized pair
groupoid on n objects over Q (every hom one-dimensional) with its own
library, into a temporary directory; the script refuses to go on unless
both files hold the same bytes.  It then times, on each side's own file:

- ``load``: ``fileformat.load``;
- ``verify_structure``: ``core.verify_structure`` at level 'hopf' on the
  loaded data;
- ``serialize``: ``fileformat.serialize`` of the loaded data;
- ``verify``: ``cli.main`` on ``verify --strictness --antipode-theorems
  --report``, with stdout discarded.

Each checkout's ``src/hopfcat`` is imported under a package name of its own,
as ``scripts/ab_jobs.py`` does.  Every run alternates the sides, the parent
first in even runs and the change first in odd ones, and the table gives
the median of ``RUNS`` runs per side and their ratio (change / parent).
Compare numbers within one run of the script only: the machine's speed
drifts between sessions.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import statistics
import sys
import tempfile
from contextlib import redirect_stdout
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_jobs import library      # noqa: E402

OPS = ("load", "verify_structure", "serialize", "verify")
SIZES = (8, 12, 16)
RUNS = 5


def write_pair_groupoid(lib, n: int, path: str) -> bytes:
    """Save the linearized pair groupoid on n objects at ``path``; its
    bytes."""
    objects = tuple(f"x{i}" for i in range(n))
    cat = lib.groupoid.linearize_groupoid(
        lib.groupoid.pair_groupoid(objects), lib.scalars.QQ)
    lib.fileformat.save(path, cat)
    with open(path, "rb") as fh:
        return fh.read()


def timed(lib, op: str, path: str, work: str) -> float:
    """The seconds that one run of ``op`` takes on the file ``path``."""
    ff = lib.fileformat
    obj = None if op in ("load", "verify") else ff.load(path)
    gc.collect()
    if op == "verify":
        argv = ["--report", os.path.join(work, "report.jsonl"), "verify",
                "--strictness", "--antipode-theorems", path]
        with redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = lib.cli.main(argv)
            t = perf_counter() - t0
        if code != 0:
            sys.exit(f"verify of {path} exited {code}")
        return t
    t0 = perf_counter()
    if op == "load":
        ff.load(path)
    elif op == "verify_structure":
        if not lib.core.verify_structure(obj, "hopf").overall:
            sys.exit(f"verify_structure fails on {path}")
    else:
        ff.serialize(obj)
    return perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    args = p.parse_args(argv)
    sides = (("parent", library("parent", args.parent)),
             ("change", library("change", args.change)))
    print(f"{'n':>3s} {'op':17s} {'parent s':>10s} {'change s':>10s} "
          f"{'ratio':>6s}")
    with tempfile.TemporaryDirectory() as work:
        for n in SIZES:
            paths, data = {}, {}
            for label, lib in sides:
                paths[label] = os.path.join(work, f"{label}_pair{n}.hc")
                data[label] = write_pair_groupoid(lib, n, paths[label])
            if data["parent"] != data["change"]:
                sys.exit(f"the two checkouts write different bytes for the "
                         f"pair groupoid on {n} objects")
            for op in OPS:
                times = {label: [] for label, _ in sides}
                for r in range(RUNS):
                    for label, lib in (sides if r % 2 == 0 else sides[::-1]):
                        times[label].append(timed(lib, op, paths[label],
                                                  work))
                mp = statistics.median(times["parent"])
                mc = statistics.median(times["change"])
                print(f"{n:3d} {op:17s} {mp:10.4f} {mc:10.4f} "
                      f"{mc / mp:6.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
