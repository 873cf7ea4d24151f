"""Command-line surface: verify / transform / analyze on structure files.

Exit codes are stable contracts:
  0  the check or operation passed,
  1  an axiom check or analysis failed (with witnesses in the report),
  2  unreadable, unparseable, or kind-incompatible input, a bad option
     value, or an output path that cannot be written,
  3  an internal theorem-backed invariant was violated (data is suspect).

Reports go to stdout as a text table and, with --report, to a structured
JSON-lines file (``Report.lines``: a line per failing or noted check, and
one per axiom family for the passing ones) next to which a run manifest
with content digests of the canonicalized inputs is written.  A --report
path that names the input, the base file a module-like input names, or an
output, directly or through its manifest, is refused before anything is
written, and so is a listing --out (integrals, coinvariants, can-ranks)
that names the input or its base file.  An analysis that writes nothing
(strictness) refuses --out, and the global --field is checked before any
command reads or writes a file.

Each command dispatches through one table, a row per kind or op: a new
op or kind is one row plus its function, looked up by name at call time
so that swapping the name (a tracer, a test) reaches every call.
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


def _same_file(a: str, b: str) -> bool:
    """Whether the paths ``a`` and ``b`` name one file, through any symlink
    or hard link: one existing file, or the one that writing to either
    would create."""
    try:
        return os.path.samestat(os.stat(a), os.stat(b))
    except OSError:
        pass
    if os.path.exists(a) or os.path.exists(b):
        return False            # one exists, the other does not
    if not (os.path.lexists(a) or os.path.lexists(b)) \
            and os.path.basename(a) != os.path.basename(b):
        return False            # two new files, no symlink between them
    return os.path.realpath(a) == os.path.realpath(b)


def _refuse_clash(args, reads, outputs=()):
    """Refuse a --report path that, itself or through its manifest, names a
    file the command reads or one of its ``outputs``, and a listing --out
    (``_LISTINGS``) that names a file it reads, before anything is written:
    writing there would replace that file.  ``reads`` and ``outputs`` are
    (path, role) pairs."""
    if args.report:
        for name in (args.report, args.report + ".manifest.json"):
            for path, role in (*reads, *outputs):
                if _same_file(name, path):
                    raise _CliError(f"--report {args.report} would "
                                    f"overwrite {role} {name}", EXIT_PARSE)
    if getattr(args, "op", None) in _LISTINGS and args.out:
        for path, role in reads:
            if _same_file(args.out, path):
                raise _CliError(f"--out {args.out} would overwrite {role} "
                                f"{args.out}", EXIT_PARSE)


def _load_input(args):
    """The structure in the input file, once no output of the command
    would replace the base file it names (``fileformat.load`` keeps its
    path); the input itself is checked before it is read, in ``main``."""
    obj = _load(args.path)
    base = getattr(obj, "_base_path", None)
    if base is not None:
        _refuse_clash(args, [(base, "the base file")])
    return obj


@contextlib.contextmanager
def _reporting(report: Report, args, command: str, path: str, obj):
    """Around the writing of a command's outputs: write the --report
    lines (``Report.lines``) and a manifest carrying the digest of
    ``obj``, the object already loaded from ``path``, before the body
    writes any output, and remove them again if the body fails; then print
    the table.  So a report path that cannot be written leaves no output
    behind, and an output that cannot be written leaves no report."""
    written = []
    try:
        if args.report:
            manifest = {
                "command": command,
                "argv": sys.argv[1:],
                "inputs": [{"path": path, "digest": fileformat.digest(obj)}],
                "report": args.report,
            }
            files = ((args.report, report.lines()),
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


def _checked(rep: Report) -> tuple[Report, bool]:
    return rep, rep.overall


def _verify_groupoid(obj) -> tuple[Report, bool]:
    rep = Report()
    try:
        validate_groupoid(obj)
        rep.add(CheckItem("groupoid-valid", (), True))
    except GroupoidError as e:
        rep.add(CheckItem("groupoid-valid", (), False, None, str(e), 1))
    return _checked(rep)


def _verify_hopf_module(obj) -> tuple[Report, bool]:
    # a failing base is the answer; a passing one is the precondition
    rep = verify_structure(obj.base, "semihopf")
    if not rep.overall:
        return rep, False
    return _checked(verify_hopf_module(obj, base=rep))


# Each table's row reaches its function through the module-level name, in a
# lambda or a def: perfbench's Tracer.install swaps names in this module's
# namespace, and would miss a function bound at import.
# kind -> verifier of every kind but hopf-category, which takes the options
_VERIFIERS = {
    DualHopfCatData: lambda o: _checked(verify_dual(o)),
    WeakHopfData: lambda o: _checked(verify_weak_hopf(o)),
    BimonoidData: lambda o: _checked(verify_bimonoid(o)),
    ModuleData: lambda o: _checked(verify_module(o)),
    ComoduleData: lambda o: _checked(verify_comodule(o)),
    HopfModuleData: _verify_hopf_module,
    GroupoidData: _verify_groupoid,
    GradedHopfData: lambda o: _checked(validate_graded(o)),
}


def _verify_any(obj, level=None, strictness=False,
                theorems=False) -> tuple[Report, bool]:
    """The report of verifying ``obj``, and its verdict read once per part.
    ``level``, ``strictness`` and ``theorems``, the options of ``verify``,
    apply to hopf-category data; given for another kind, each is refused."""
    if not isinstance(obj, HopfCatData):
        for flag, given in (("--level", level), ("--strictness", strictness),
                            ("--antipode-theorems", theorems)):
            if given:
                raise _CliError(f"{flag} only applies to hopf-category files",
                                EXIT_PARSE)
        return _VERIFIERS[type(obj)](obj)
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


def cmd_verify(args) -> int:
    obj = _load_input(args)
    rep, ok = _verify_any(obj, args.level, args.strictness,
                          args.antipode_theorems)
    with _reporting(rep, args, "verify", args.path, obj):
        pass
    return EXIT_PASS if ok else EXIT_FAIL


# op -> (kind taken, function of the structure and the arguments)
_TRANSFORMS = {
    "from-groupoid": (GroupoidData,
                      lambda o, a: linearize_groupoid(o, a.field)),
    "from-graded": (GradedHopfData, lambda o, a: from_graded(o)),
    "dualize": (HopfCatData, lambda o, a: dualize(o)),
    "undualize": (DualHopfCatData, lambda o, a: undualize(o)),
    "pack": (HopfCatData, lambda o, a: pack(o)),
    "pack-dual": (DualHopfCatData, lambda o, a: pack_dual(o)),
    "opposite": (HopfCatData, lambda o, a: transform(o, "opposite")),
    "coopposite": (HopfCatData, lambda o, a: transform(o, "coopposite")),
    "opcop": (HopfCatData, lambda o, a: transform(o, "opcop")),
    "bimonoid": (HopfCatData, lambda o, a: bimonoid_from_category(o)),
    "unbimonoid": (BimonoidData, lambda o, a: category_from_bimonoid(o)),
}


def cmd_transform(args) -> int:
    obj = _load_input(args)
    kind, apply = _TRANSFORMS[args.op]
    if not isinstance(obj, kind):
        raise _CliError(f"op '{args.op}' does not accept kind "
                        f"'{fileformat.kind_of(obj)}'", EXIT_PARSE)
    out = apply(obj, args)
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
        lines.append(f"{x}: dimension {len(bases[x])}")
        lines += ["  (" + ", ".join(map(field.fmt, v)) + ")" for v in bases[x]]
    return lines


def _recover(obj):
    rep, result = Report(), recover_antipode(obj.strip_antipode())
    if isinstance(result, RecoveryFailure):
        rep.add(CheckItem(
            "antipode-recoverable", (result.z, result.x, result.y), False,
            None, f"canonical map has rank {result.rank} of {result.dim}", 1))
        return rep, False, None
    rep.add(CheckItem("antipode-recoverable", (), True))
    return rep, True, result


def _integrals(obj):
    rep, memo = Report(), {}
    bases = {x: integrals(obj, x, memo) for x in obj.objects}
    for x in obj.objects:
        rep.add(CheckItem("integral-basis", (x,), True, None,
                          f"dimension {len(bases[x])}"))
    return rep, True, _basis_lines(obj.field, bases)


def _coinvariants(obj):
    rep, fam = Report(), coinvariants(obj)
    for x in obj.base.objects:
        rep.add(CheckItem("coinvariant-basis", (x,), True, None,
                          f"dimension {fam.dim(x)}"))
    return rep, True, _basis_lines(obj.base.field, fam.bases)


def _can_ranks(obj):
    rep, lines = Report(), []
    for (z, x, y), (r, d) in sorted(can_rank_table(obj).items()):
        ok = r == d
        rep.add(CheckItem("can-invertible", (z, x, y), ok, None if ok else 0,
                          f"rank {r} of {d}", 0 if ok else 1))
        lines.append(f"can[{z};{x},{y}] rank {r} of {d} "
                     + ("invertible" if ok else "SINGULAR"))
    return rep, rep.overall, lines


def _strictness(obj):
    rep = check_strictness(obj)
    return rep, all(i.ok for i in rep.by_axiom("compose-surjective")), None


# op -> (kind taken, analysis, what --out receives: "listing", "structure"
# or None, which refuses --out); an analysis returns its report, its verdict
# and the listing's lines, the completed structure or None
_ANALYSES = {
    "recover-antipode": (HopfCatData, _recover, "structure"),
    "integrals": (HopfCatData, _integrals, "listing"),
    "coinvariants": (HopfModuleData, _coinvariants, "listing"),
    "can-ranks": (HopfCatData, _can_ranks, "listing"),
    "strictness": (HopfCatData, _strictness, None),
}
_LISTINGS = tuple(op for op, row in _ANALYSES.items() if row[2] == "listing")


def cmd_analyze(args) -> int:
    obj = _load_input(args)
    kind, analysis, writes = _ANALYSES[args.op]
    if not isinstance(obj, kind):
        raise _CliError(f"{args.op} needs a {kind.layout.name} file",
                        EXIT_PARSE)
    if args.out and writes is None:
        raise _CliError(f"{args.op} writes nothing to --out", EXIT_PARSE)
    rep, ok, out = analysis(obj)
    lines = out if writes == "listing" else []
    with _reporting(rep, args, f"analyze {args.op}", args.path, obj):
        if args.out and writes == "listing":
            with _writing(args.out), open(args.out, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        elif args.out and out is not None:
            with _writing(args.out):
                fileformat.save(args.out, out)
            lines = [f"wrote completed hopf-category to {args.out}"]
        if not args.quiet:
            for line in lines:
                print(line)
    return EXIT_PASS if ok else EXIT_FAIL


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
                   help="target field for from-groupoid: q or fp:<p>; "
                        "checked for every command")
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
    pa.add_argument("op", choices=tuple(_ANALYSES))
    pa.add_argument("--out", default=None,
                    help="output file (completed structure or listing)")
    pa.set_defaults(func=cmd_analyze)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            args.field = parse_field(args.field)
        except ValueError as e:
            raise _CliError(f"--field '{args.field}': {e}", EXIT_PARSE)
        out = getattr(args, "out", None)
        _refuse_clash(args, [(args.path, "the input")],
                      [(out, "the output")] if out else ())
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
