"""Command-line surface: verify / transform / analyze on structure files.

Exit codes are stable contracts:
  0  the check or operation passed,
  1  an axiom check or analysis failed (with witnesses in the report),
  2  unreadable, unparseable, or kind-incompatible input, a bad option
     value, or an output path that cannot be written,
  3  an internal theorem-backed invariant was violated (data is suspect).

Reports go to stdout as a text table and, with --report, to a structured
JSON-lines file (one check record per line) next to which a run manifest
with content digests of the canonicalized inputs is written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import fileformat
from .core import (HopfCatData, MalformedDataError, MissingAntipodeError,
                   check_antipode_theorems, check_strictness, transform,
                   verify_structure)
from .dual import DualHopfCatData, dualize, undualize, verify_dual
from .duoidal import (BimonoidData, bimonoid_from_category,
                      category_from_bimonoid, verify_bimonoid)
from .fundamental import (HopfModuleData, RecoveryFailure, can_rank_table,
                          coinvariants, integrals, recover_antipode,
                          verify_hopf_module)
from .graded import GradedError, GradedHopfData, from_graded, validate_graded
from .groupoid import GroupoidData, GroupoidError, linearize_groupoid, \
    validate_groupoid
from .modules import ComoduleData, ModuleData, verify_comodule, verify_module
from .report import (CheckItem, InternalInvariantError, PreconditionError,
                     Report)
from .scalars import parse_field
from .weak import WeakHopfData, pack, pack_dual, verify_weak_hopf

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load(path: str):
    try:
        return fileformat.load(path)
    except OSError as e:
        raise _CliError(f"cannot read {path}: {e}", EXIT_PARSE)
    except fileformat.ParseError as e:
        raise _CliError(f"{e.path or path}: {e}", EXIT_PARSE)


@contextlib.contextmanager
def _writing(path: str):
    """Report a failure to write the output ``path`` the user gave as
    exit 2, under that path rather than a temporary file's."""
    try:
        yield
    except OSError as e:
        raise _CliError(f"cannot write {path}: {e.strerror or e}",
                        EXIT_PARSE)


@contextlib.contextmanager
def _reporting(report: Report, args, command: str, path: str, obj):
    """Around the writing of a command's outputs: write the --report
    records and a manifest carrying the digest of ``obj``, the object
    already loaded from ``path``, before the body writes any output, and
    remove them again if the body fails; then print the table.  So a report
    path that cannot be written leaves no output behind, and an output that
    cannot be written leaves no report."""
    written = []
    try:
        if args.report:
            manifest = {
                "command": command,
                "argv": sys.argv[1:],
                "inputs": [{"path": path, "digest": fileformat.digest(obj)}],
                "report": args.report,
            }
            files = ((args.report, map(CheckItem.json_line, report.items)),
                     (args.report + ".manifest.json",
                      [json.dumps(manifest, indent=2, sort_keys=True) + "\n"]))
            with _writing(args.report):
                for name, lines in files:
                    with open(name, "w") as fh:
                        written.append(name)
                        fh.writelines(lines)
        yield
    except BaseException:
        for name in written:
            os.unlink(name)
        raise
    if not args.quiet:
        print(report.table())


def _verify_any(obj, level=None, strictness=False,
                theorems=False) -> tuple[Report, bool]:
    """The report of verifying ``obj``, and its verdict read once per part.
    ``level``, ``strictness`` and ``theorems`` are the options of
    ``verify``: they apply to hopf-category data, and a level given for
    any other kind is a usage error."""
    if isinstance(obj, HopfCatData):
        level = level or ("hopf" if obj.has_antipode else "semihopf")
        rep = verify_structure(obj, level)
        # the extra checks presuppose valid data: on a failing base report
        # they are skipped, and that report is the answer
        if not rep.overall:
            return rep, False
        # the data is verified once per level an extra check needs, and the
        # passing report handed to the check as its precondition
        extra = Report()
        if strictness:
            extra.extend(check_strictness(obj, base=rep))
        if theorems:
            hopf = rep if level == "hopf" else verify_structure(obj, "hopf")
            if hopf is rep or hopf.overall:
                extra.extend(check_antipode_theorems(obj, base=hopf))
            else:
                extra.items.extend(hopf.failed())
        rep.extend(extra)
        return rep, extra.overall
    if level:
        raise _CliError("--level only applies to hopf-category files",
                        EXIT_PARSE)
    if isinstance(obj, DualHopfCatData):
        rep = verify_dual(obj)
    elif isinstance(obj, WeakHopfData):
        rep = verify_weak_hopf(obj)
    elif isinstance(obj, BimonoidData):
        rep = verify_bimonoid(obj)
    elif isinstance(obj, ModuleData):
        rep = verify_module(obj)
    elif isinstance(obj, ComoduleData):
        rep = verify_comodule(obj)
    elif isinstance(obj, HopfModuleData):
        # a failing base is the answer; a passing one is the precondition
        rep = verify_structure(obj.base, "semihopf")
        if not rep.overall:
            return rep, False
        rep = verify_hopf_module(obj, base=rep)
    elif isinstance(obj, GroupoidData):
        rep = Report()
        try:
            validate_groupoid(obj)
            rep.add(CheckItem("groupoid-valid", (), True))
        except GroupoidError as e:
            rep.add(CheckItem("groupoid-valid", (), False, None, str(e), 1))
    elif isinstance(obj, GradedHopfData):
        rep = validate_graded(obj)
    else:
        raise _CliError(f"no verifier for {type(obj).__name__}", EXIT_PARSE)
    return rep, rep.overall


def cmd_verify(args) -> int:
    obj = _load(args.path)
    rep, ok = _verify_any(obj, args.level, args.strictness,
                          args.antipode_theorems)
    with _reporting(rep, args, "verify", args.path, obj):
        pass
    return EXIT_PASS if ok else EXIT_FAIL


_TRANSFORMS = {
    "from-groupoid": (GroupoidData,),
    "from-graded": (GradedHopfData,),
    "dualize": (HopfCatData,),
    "undualize": (DualHopfCatData,),
    "pack": (HopfCatData,),
    "pack-dual": (DualHopfCatData,),
    "opposite": (HopfCatData,),
    "coopposite": (HopfCatData,),
    "opcop": (HopfCatData,),
    "bimonoid": (HopfCatData,),
    "unbimonoid": (BimonoidData,),
}


def _apply_transform(obj, op: str, args):
    if not isinstance(obj, _TRANSFORMS[op]):
        raise _CliError(
            f"op '{op}' does not accept kind "
            f"'{fileformat.kind_of(obj)}'", EXIT_PARSE)
    if op == "from-groupoid":
        try:
            field = parse_field(args.field)
        except ValueError as e:
            raise _CliError(f"--field '{args.field}': {e}", EXIT_PARSE)
        return linearize_groupoid(obj, field)
    if op == "from-graded":
        return from_graded(obj)
    if op == "dualize":
        return dualize(obj)
    if op == "undualize":
        return undualize(obj)
    if op == "pack":
        return pack(obj)
    if op == "pack-dual":
        return pack_dual(obj)
    if op in ("opposite", "coopposite", "opcop"):
        return transform(obj, op)
    if op == "bimonoid":
        return bimonoid_from_category(obj)
    return category_from_bimonoid(obj)     # op == "unbimonoid"


def cmd_transform(args) -> int:
    obj = _load(args.path)
    out = _apply_transform(obj, args.op, args)
    # self-check before writing
    rep, ok = _verify_any(out)
    if not ok:
        if not args.quiet:
            print(rep.table())
        raise _CliError(
            f"transform output fails its own verification: {rep.summary()}",
            EXIT_INTERNAL)
    with _reporting(rep, args, f"transform {args.op}", args.path, obj):
        with _writing(args.out):
            fileformat.save(args.out, out)
        if not args.quiet:
            print(f"wrote {fileformat.kind_of(out)} to {args.out}")
    return EXIT_PASS


def _basis_lines(field, bases: dict) -> list[str]:
    lines = []
    for x in sorted(bases):
        vecs = bases[x]
        lines.append(f"{x}: dimension {len(vecs)}")
        for v in vecs:
            lines.append("  (" + ", ".join(field.fmt(c) for c in v) + ")")
    return lines


def cmd_analyze(args) -> int:
    obj = _load(args.path)
    op = args.op
    rep = Report()
    code = EXIT_PASS
    out_lines: list[str] = []
    completed = None

    if op == "recover-antipode":
        if not isinstance(obj, HopfCatData):
            raise _CliError("recover-antipode needs a hopf-category file",
                            EXIT_PARSE)
        result = recover_antipode(obj.strip_antipode())
        if isinstance(result, RecoveryFailure):
            rep.add(CheckItem(
                "antipode-recoverable", (result.z, result.x, result.y), False,
                None,
                f"canonical map has rank {result.rank} of {result.dim}", 1))
            code = EXIT_FAIL
        else:
            rep.add(CheckItem("antipode-recoverable", (), True))
            completed = result
    elif op == "integrals":
        if not isinstance(obj, HopfCatData):
            raise _CliError("integrals needs a hopf-category file", EXIT_PARSE)
        memo = {}
        bases = {x: integrals(obj, x, memo) for x in obj.objects}
        for x in obj.objects:
            rep.add(CheckItem("integral-basis", (x,), True, None,
                              f"dimension {len(bases[x])}"))
        out_lines.extend(_basis_lines(obj.field, bases))
    elif op == "coinvariants":
        if not isinstance(obj, HopfModuleData):
            raise _CliError("coinvariants needs a hopf-module file",
                            EXIT_PARSE)
        fam = coinvariants(obj)
        for x in obj.base.objects:
            rep.add(CheckItem("coinvariant-basis", (x,), True, None,
                              f"dimension {fam.dim(x)}"))
        out_lines.extend(_basis_lines(obj.base.field, fam.bases))
    elif op == "can-ranks":
        if not isinstance(obj, HopfCatData):
            raise _CliError("can-ranks needs a hopf-category file", EXIT_PARSE)
        table = can_rank_table(obj)
        for (z, x, y), (r, d) in sorted(table.items()):
            ok = r == d
            rep.add(CheckItem("can-invertible", (z, x, y), ok,
                              None if ok else 0, f"rank {r} of {d}",
                              0 if ok else 1))
            out_lines.append(f"can[{z};{x},{y}] rank {r} of {d} "
                             + ("invertible" if ok else "SINGULAR"))
        if not rep.overall:
            code = EXIT_FAIL
    elif op == "strictness":
        if not isinstance(obj, HopfCatData):
            raise _CliError("strictness needs a hopf-category file",
                            EXIT_PARSE)
        rep = check_strictness(obj)
        if not all(i.ok for i in rep.by_axiom("compose-surjective")):
            code = EXIT_FAIL

    with _reporting(rep, args, f"analyze {op}", args.path, obj):
        if args.out and completed is not None:
            with _writing(args.out):
                fileformat.save(args.out, completed)
            out_lines.append(f"wrote completed hopf-category to {args.out}")
        elif args.out and op in ("integrals", "coinvariants", "can-ranks"):
            with _writing(args.out), open(args.out, "w") as fh:
                fh.write("\n".join(out_lines) + "\n")
        if not args.quiet:
            for line in out_lines:
                print(line)
    return code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: every ``parse_args``
    call fills a fresh namespace, so nothing carries from one call to the
    next."""
    p = argparse.ArgumentParser(
        prog="hopfcat",
        description="exact structure-constant calculus for finite k-linear "
                    "Hopf categories")
    p.add_argument("--field", default="q",
                   help="target field for from-groupoid: q or fp:<p>")
    p.add_argument("--report", default=None,
                   help="write a JSON-lines report (plus run manifest)")
    p.add_argument("--quiet", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="check all axioms of a structure file")
    pv.add_argument("path")
    pv.add_argument("--level", choices=("category", "semihopf", "hopf"),
                    default=None)
    pv.add_argument("--strictness", action="store_true",
                    help="also check surjectivity of all composition maps")
    pv.add_argument("--antipode-theorems", action="store_true",
                    help="also check the derived antipode identities")
    pv.set_defaults(func=cmd_verify)

    pt = sub.add_parser("transform", help="apply a construction and write "
                                          "the canonical output file")
    pt.add_argument("path")
    pt.add_argument("op", choices=sorted(_TRANSFORMS))
    pt.add_argument("out")
    pt.set_defaults(func=cmd_transform)

    pa = sub.add_parser("analyze", help="derived computations and rank scans")
    pa.add_argument("path")
    pa.add_argument("op", choices=("recover-antipode", "integrals",
                                   "coinvariants", "can-ranks", "strictness"))
    pa.add_argument("--out", default=None,
                    help="output file (completed structure or listing)")
    pa.set_defaults(func=cmd_analyze)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (fileformat.ParseError, GroupoidError, GradedError,
            MissingAntipodeError, MalformedDataError,
            PreconditionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except InternalInvariantError as e:
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
