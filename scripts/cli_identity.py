#!/usr/bin/env python3
"""Byte identity of the CLI between two checkouts.

    python3 scripts/cli_identity.py PARENT_DIR CHANGE_DIR

Runs, on every fixture of each checkout's ``fixtures/``, every ``verify``
mode (plain, each ``--level``, ``--strictness --antipode-theorems``), every
``transform`` op and every ``analyze`` op (with ``--out``), each with
``--report``: 21 runs per fixture.  It then writes, as text, the groupoid
files of the pair groupoids on 5 and 7 objects, the same bytes for both
checkouts, and runs ``from-groupoid`` on each, then every ``verify`` mode,
``dualize``, ``opposite`` and ``bimonoid`` on its output: 9 runs per
groupoid, whose n³ and n⁴ families repeat one axiom instance thousands of
times, where the fixtures have at most 3 objects.  Each checkout runs in
one fresh process that imports ``hopfcat`` from its own ``src/`` and calls
``cli.main`` once per run, with ``sys.argv`` set as the command line would
set it, in a temporary directory of its own.

It prints every difference in exit code, stdout, stderr, report, manifest
or output file, after replacing each checkout's path and its temporary
directory with fixed markers, and exits 1 if there is any, 0 if there is
none.  Reports, like every other field, are compared byte for byte.
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
GENERATED = (5, 7)
HEAD = ["--report", "{work}/report.jsonl"]


def pair_groupoid_text(n: int) -> str:
    """The groupoid file of the pair groupoid on objects 1..n: one morphism
    p_x_y: y → x for each ordered pair, composed as p_x_y ∘ p_y_z = p_x_z,
    in the order the writer emits."""
    X = [str(i) for i in range(1, n + 1)]
    lines = ["format 1", "kind groupoid", "objects " + " ".join(X)]
    lines += [f"morphism p_{x}_{y} {y} {x}" for x in X for y in X]
    lines += [f"identity {x} p_{x}_{x}" for x in X]
    lines += [f"compose p_{x}_{y} p_{y}_{z} p_{x}_{z}"
              for x in X for y in X for z in X]
    lines += [f"inverse p_{x}_{y} p_{y}_{x}" for x in X for y in X]
    return "\n".join(lines) + "\n"


def _structure_runs(name: str, src: str, ops) -> list:
    """(label, argv, None) of every ``verify`` mode and each transform in
    ``ops`` on the file ``src``, labelled by ``name``."""
    out = [(f"verify {name} {' '.join(flags)}".rstrip(),
            HEAD + ["verify", src] + flags, None) for flags in VERIFY]
    out += [(f"transform {name} {op}",
             HEAD + ["transform", src, op, "{work}/out"], None) for op in ops]
    return out


def runs(fixtures: str) -> list:
    """(label, argv, keep) of every run, with the paths still to be joined:
    ``{fx}`` is the fixture directory, ``{work}`` the work directory and
    ``{gen}`` the directory of the generated inputs.  ``keep``, when not
    None, is where the run's output moves once it is read, as the input of
    the runs after it."""
    out = []
    for path in sorted(glob.glob(os.path.join(fixtures, "*.hc"))):
        name = os.path.basename(path)
        out += _structure_runs(name, "{fx}/" + name, TRANSFORM)
        out += [(f"analyze {name} {op}",
                 HEAD + ["analyze", "{fx}/" + name, op, "--out", "{work}/out"],
                 None) for op in ANALYZE]
    for n in GENERATED:
        name = f"pair{n}.hc"
        out.append((f"transform pair{n}_groupoid.hc from-groupoid",
                    HEAD + ["transform", f"{{gen}}/pair{n}_groupoid.hc",
                            "from-groupoid", "{work}/out"], "{gen}/" + name))
        out += _structure_runs(name, "{gen}/" + name,
                               ("dualize", "opposite", "bimonoid"))
    return out


def _read(path: str, keep: str | None = None):
    """The text of ``path``, or None when there is no such file; the file
    is then removed, or moved to ``keep``."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    if keep is None:
        os.unlink(path)
    else:
        os.replace(path, keep)
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
    gen = os.path.join(work, "generated")
    os.mkdir(gen)
    for n in GENERATED:
        with open(os.path.join(gen, f"pair{n}_groupoid.hc"), "w") as fh:
            fh.write(pair_groupoid_text(n))
    outcomes = {}
    for label, argv, keep in runs(fixtures):
        argv = [a.format(fx=fixtures, work=work, gen=gen) for a in argv]
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
            "out": _read(os.path.join(work, "out"),
                         keep and keep.format(gen=gen))}
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
