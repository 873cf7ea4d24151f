#!/usr/bin/env python3
"""Byte identity of the CLI between two checkouts.

    python3 scripts/cli_identity.py PARENT_DIR CHANGE_DIR

Runs, on every fixture of each checkout's ``fixtures/``, every ``verify``
mode (plain, each ``--level``, ``--strictness --antipode-theorems``), every
``transform`` op and every ``analyze`` op (with ``--out``), each with
``--report``: 21 runs per fixture.  Each checkout runs in one fresh
process that imports ``hopfcat`` from its own ``src/`` and calls
``cli.main`` once per run, with ``sys.argv`` set as the command line would
set it, in a temporary directory of its own.

It prints every difference in exit code, stdout, stderr, report, manifest
or output file, after replacing each checkout's path and its temporary
directory with fixed markers, and exits 1 if there is any, 0 if there is
none.
"""

from __future__ import annotations

import difflib
import glob
import json
import os
import subprocess
import sys
import tempfile

VERIFY = ([], ["--level", "category"], ["--level", "semihopf"],
          ["--level", "hopf"], ["--strictness", "--antipode-theorems"])
TRANSFORM = ("from-groupoid", "from-graded", "dualize", "undualize", "pack",
             "pack-dual", "opposite", "coopposite", "opcop", "bimonoid",
             "unbimonoid")
ANALYZE = ("recover-antipode", "integrals", "coinvariants", "can-ranks",
           "strictness")
FIELDS = ("exit", "stdout", "stderr", "report", "manifest", "out")


def runs(fixtures: str) -> list:
    """(label, argv) of every run, with the paths still to be joined:
    ``{fx}`` is the fixture directory, ``{work}`` the work directory."""
    out = []
    for path in sorted(glob.glob(os.path.join(fixtures, "*.hc"))):
        name = os.path.basename(path)
        src, report = "{fx}/" + name, "{work}/report.jsonl"
        head = ["--report", report]
        for flags in VERIFY:
            out.append((f"verify {name} {' '.join(flags)}".rstrip(),
                        head + ["verify", src] + flags))
        for op in TRANSFORM:
            out.append((f"transform {name} {op}",
                        head + ["transform", src, op, "{work}/out"]))
        for op in ANALYZE:
            out.append((f"analyze {name} {op}",
                        head + ["analyze", src, op, "--out", "{work}/out"]))
    return out


def _read(path: str):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    os.unlink(path)
    return data.decode(errors="backslashreplace")


def worker(checkout: str, work: str, result: str):
    """Every run in this process; the outcomes go to ``result`` as JSON."""
    import contextlib
    import io
    import traceback

    from hopfcat import cli
    fixtures = os.path.join(checkout, "fixtures")
    if not os.path.abspath(cli.__file__).startswith(
            os.path.join(checkout, "src")):
        raise RuntimeError(f"imported {cli.__file__}, not {checkout}'s")
    outcomes = {}
    for label, argv in runs(fixtures):
        argv = [a.format(fx=fixtures, work=work) for a in argv]
        sys.argv = ["hopfcat", *argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
            except Exception:
                code = "raised"
                traceback.print_exc(limit=1)
        report = os.path.join(work, "report.jsonl")
        outcomes[label] = {
            "exit": str(code), "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(), "report": _read(report),
            "manifest": _read(report + ".manifest.json"),
            "out": _read(os.path.join(work, "out"))}
    with open(result, "w") as fh:
        json.dump(outcomes, fh)


def run_checkout(checkout: str) -> dict:
    """The outcome of every run in ``checkout``, paths replaced by markers."""
    checkout = os.path.abspath(checkout)
    with tempfile.TemporaryDirectory(prefix="cli-identity-") as work:
        result = os.path.join(work, "result.json")
        path = [os.path.join(checkout, "src"), os.path.dirname(__file__)]
        boot = (f"import sys; sys.path[:0] = {path!r}; import cli_identity; "
                f"cli_identity.worker({checkout!r}, {work!r}, {result!r})")
        proc = subprocess.run([sys.executable, "-c", boot], cwd=work,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"the runs in {checkout} failed:\n{proc.stderr}")
        with open(result) as fh:
            outcomes = json.load(fh)
    for fields in outcomes.values():
        for key, text in fields.items():
            if text is not None:
                fields[key] = text.replace(work, "<work>").replace(
                    checkout, "<checkout>")
    return outcomes


def differences(parent: dict, change: dict) -> list:
    """One text per differing (run, field): a heading and a unified diff."""
    out = []
    for label in sorted(set(parent) | set(change)):
        if label not in parent or label not in change:
            side = "change" if label in change else "parent"
            out.append(f"{label}: runs only in the {side}")
            continue
        for key in FIELDS:
            old, new = parent[label][key], change[label][key]
            if old != new:
                diff = difflib.unified_diff(
                    (old or "").splitlines(), (new or "").splitlines(),
                    "parent", "change", n=1, lineterm="")
                out.append("\n    ".join([f"{label}: {key} differs", *diff]))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit("usage: " + __doc__.strip().splitlines()[2].strip())
    parent, change = (run_checkout(d) for d in argv)
    found = differences(parent, change)
    for text in found:
        print(text)
    print(f"{len(change)} runs in each checkout, {len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
