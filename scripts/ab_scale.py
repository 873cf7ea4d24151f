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

It does the same with the weak Hopf algebra that ``weak.pack`` makes of
that groupoid, written by each side to a file of its own (the bytes must
match again), and times:

- ``pack``: ``weak.pack`` of the linearized groupoid;
- ``verify_weak_hopf``: ``weak.verify_weak_hopf`` of the loaded algebra;
- ``serialize`` and ``load`` of the algebra, as above.

A side whose run of one of these takes longer than ``BUDGET_S`` is not
timed on that operation again: the table says so in place of its median,
with the time of that one run, and leaves out the operation on that side
at every larger size.  (Before the weak kind stored its tensors sparsely,
one tensor of the algebra on the 16-object groupoid had 256³ cells.)

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
PACKED_OPS = ("pack", "verify_weak_hopf", "serialize", "load")
SIZES = (8, 12, 16)
RUNS = 5
BUDGET_S = 1.0


def pair_groupoid(lib, n: int):
    """The linearized pair groupoid on n objects over Q."""
    objects = tuple(f"x{i}" for i in range(n))
    return lib.groupoid.linearize_groupoid(
        lib.groupoid.pair_groupoid(objects), lib.scalars.QQ)


def write(lib, obj, path: str) -> bytes:
    """Save ``obj`` at ``path``; its bytes."""
    lib.fileformat.save(path, obj)
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


def timed_packed(lib, op: str, path: str, cat) -> float:
    """The seconds that one run of the packed ``op`` takes: ``pack`` of
    the category ``cat``, the others on the algebra in the file ``path``."""
    w = None if op in ("pack", "load") else lib.fileformat.load(path)
    gc.collect()
    t0 = perf_counter()
    if op == "pack":
        lib.weak.pack(cat)
    elif op == "verify_weak_hopf":
        if not lib.weak.verify_weak_hopf(w).overall:
            sys.exit(f"verify_weak_hopf fails on {path}")
    elif op == "serialize":
        lib.fileformat.serialize(w)
    else:
        lib.fileformat.load(path)
    return perf_counter() - t0


def row(n: int, op: str, times: dict, over: dict) -> str:
    """One line of the table: the median of each side, or the one run of
    a side that went over the budget, and their ratio."""
    cells, medians = [], {}
    for label in ("parent", "change"):
        if label in over:
            cells.append(f"{'over ' + format(over[label], '.2f'):>10s}")
        elif not times[label]:
            cells.append(f"{'skipped':>10s}")
        else:
            medians[label] = statistics.median(times[label])
            cells.append(f"{medians[label]:10.4f}")
    ratio = f"{medians['change'] / medians['parent']:6.2f}" \
        if len(medians) == 2 else f"{'-':>6s}"
    return f"{n:3d} {op:24s} {' '.join(cells)} {ratio}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    args = p.parse_args(argv)
    sides = (("parent", library("parent", args.parent)),
             ("change", library("change", args.change)))
    print(f"{'n':>3s} {'op':24s} {'parent s':>10s} {'change s':>10s} "
          f"{'ratio':>6s}")
    beyond = set()      # (side, packed op) that went over the budget
    with tempfile.TemporaryDirectory() as work:
        for n in SIZES:
            cats, paths, data = {}, {}, {}
            for label, lib in sides:
                cats[label] = pair_groupoid(lib, n)
                paths[label] = os.path.join(work, f"{label}_pair{n}.hc")
                data[label] = write(lib, cats[label], paths[label])
            if data["parent"] != data["change"]:
                sys.exit(f"the two checkouts write different bytes for the "
                         f"pair groupoid on {n} objects")
            for op in OPS:
                times = {label: [] for label, _ in sides}
                for r in range(RUNS):
                    for label, lib in (sides if r % 2 == 0 else sides[::-1]):
                        times[label].append(timed(lib, op, paths[label],
                                                  work))
                print(row(n, op, times, {}), flush=True)
            packed, data = {}, {}
            for label, lib in sides:
                packed[label] = os.path.join(work, f"{label}_packed{n}.hc")
                if any((label, op) not in beyond for op in PACKED_OPS):
                    data[label] = write(lib, lib.weak.pack(cats[label]),
                                        packed[label])
            if len(set(data.values())) > 1:
                sys.exit(f"the two checkouts write different bytes for the "
                         f"packed pair groupoid on {n} objects")
            for op in PACKED_OPS:
                times, over = {label: [] for label, _ in sides}, {}
                for r in range(RUNS):
                    for label, lib in (sides if r % 2 == 0 else sides[::-1]):
                        if (label, op) in beyond:
                            continue
                        t = timed_packed(lib, op, packed[label], cats[label])
                        if t > BUDGET_S:
                            beyond.add((label, op))
                            over[label] = t
                        else:
                            times[label].append(t)
                print(row(n, f"packed {op}", times, over), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
