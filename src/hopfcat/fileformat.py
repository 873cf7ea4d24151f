"""Line-oriented sparse structure-constant files.

Layout: a fixed header (format version, kind, field, object list, per-kind
headers), `dim` lines, then one record per nonzero coefficient.  Scalars are
strings ('a/b' or 'a' over the rationals, decimal digits over a prime field
whose modulus rides in the header), so files are exact and diffable.
Serialization is canonical: header order is fixed, records are sorted by tag
and index tuple in declared object order, and zeros are never emitted.

The single place where a kind's layout is defined is its slot table in
``schema``: record tag, key labels, index order and dimension rule of every
tensor family.  One reader and one writer serve every kind from the tables;
only the headers that are not slots (``antipode``, ``base``, ``side``,
``gmul``, ``block``) and the scalar-free ``groupoid`` kind have code here.
Module-like kinds name their base with `base <name>`, resolved by the loader
next to the file (adding the .hc suffix when absent).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from itertools import product

from .core import HopfCatData
from .dual import DualHopfCatData
from .duoidal import BimonoidData, MkXObject
from .fundamental import HopfModuleData
from .graded import GradedError, GradedHopfData, GroupTable
from .groupoid import GroupoidData
from .modules import ComoduleData, ModuleData
from .scalars import parse_field
from .schema import LAYOUTS, Frame
from .weak import WeakHopfData

FORMAT_VERSION = 1

KINDS = tuple(LAYOUTS)

_CLASSES = {cls.layout.name: cls for cls in (
    HopfCatData, DualHopfCatData, WeakHopfData, GroupoidData, GradedHopfData,
    ModuleData, ComoduleData, HopfModuleData, BimonoidData)}

# header name -> tokens on its line; the first three appear at most once
_HEADER_WIDTH = {"antipode": 2, "base": 2, "side": 2, "gmul": 4, "block": 5}
_ONCE = ("antipode", "base", "side")


class ParseError(ValueError):
    """A malformed file, at ``line``; ``path`` names the file holding that
    line when it is a base file rather than the file loaded."""

    path: str | None = None

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class KindMismatchError(ParseError):
    """The file parses but its kind does not fit the requested operation."""


def kind_of(obj) -> str:
    return type(obj).layout.name


# -- serialization -----------------------------------------------------------------

def _header_lines(obj, name: str) -> list[str]:
    if name == "antipode":
        return ["antipode " + ("no" if obj.antipode is None else "yes")]
    if name == "base":
        if getattr(obj, "_base_name", None) is None:
            raise ParseError("module-like data needs a base name for "
                             "serialization; set obj._base_name")
        return [f"base {obj._base_name}"]
    if name == "side":
        return [f"side {obj.side}"]
    if name == "gmul":
        table = obj.group.table
        return [f"gmul {a} {b} {table[(a, b)]}"
                for a, b in product(obj.group.elements, repeat=2)
                if (a, b) in table]
    return [f"block {x} {y} {off} {ln}" for ((x, y), off, ln) in obj.blocks]


def _serialize_groupoid(g: GroupoidData) -> list[str]:
    return (["objects " + " ".join(g.objects)]
            + [f"morphism {' '.join(m)}" for m in g.morphisms]
            + [f"identity {x} {g.identities[x]}" for x in g.objects]
            + [f"compose {a} {b} {c}" for (a, b), c in sorted(g.compose.items())]
            + [f"inverse {a} {b}" for a, b in sorted(g.inverses.items())])


def serialize(obj) -> str:
    kind = type(obj).layout
    lines = [f"format {FORMAT_VERSION}", f"kind {kind.name}"]
    if kind.name == "groupoid":
        return "\n".join(lines + _serialize_groupoid(obj)) + "\n"
    frame = kind.frame(obj)
    fmt = frame.field.fmt
    labels = frame.labels
    if kind.labels is None:     # weak: the objects named by the blocks
        labels = tuple(dict.fromkeys(
            lbl for (pair, _, _) in obj.blocks for lbl in pair))
    lines.append(f"field {frame.field}")
    lines.append("objects " + " ".join(labels))
    for name in kind.headers:
        lines.extend(_header_lines(obj, name))
    if kind.dim:
        for key in product(frame.labels, repeat=len(kind.dim)):
            d = frame.dims[key[0] if len(key) == 1 else key]
            lines.append(" ".join(("dim", *key, str(d))))
    for slot in sorted(kind.slots, key=lambda s: s.tag):
        data = getattr(obj, slot.tag)
        if data is None:
            continue
        for key in product(frame.labels, repeat=len(slot.keys)):
            head = " ".join((slot.tag, *key))
            lines.extend(" ".join((head, *map(str, idx), fmt(v)))
                         for idx, v in slot.entries(slot.stored(data, key)))
    return "\n".join(lines) + "\n"


def digest(obj) -> str:
    return hashlib.sha256(serialize(obj).encode()).hexdigest()


def save(path: str, obj):
    """Atomic write of the canonical serialization, with the mode that
    ``open(path, "w")`` would give a new file: 0666 less the umask, where
    ``mkstemp`` alone would leave 0600."""
    data = serialize(obj)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".hopfcat-")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as fh:
            os.chmod(tmp, 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- parsing -----------------------------------------------------------------------

def _rows(text: str) -> list:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body.split()))
    return rows


def _take_header(rows, idx, name):
    if idx < len(rows) and rows[idx][1][0] == name:
        return idx + 1, rows[idx]
    lineno = rows[idx][0] if idx < len(rows) else rows[-1][0]
    raise ParseError(f"expected '{name}' header", lineno)


def _scalar(field, tok, ln):
    try:
        return field.parse(tok)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad scalar '{tok}': {e}", ln)


def _int(tok, ln):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"bad integer '{tok}'", ln)


def _check_label(labels, tok, ln):
    if tok not in labels:
        raise ParseError(f"undeclared object label '{tok}'", ln)
    return tok


def parse(text: str, base_loader=None):
    """Parse one structure file; ``base_loader(name)`` resolves module bases."""
    rows = _rows(text)
    if not rows:
        raise ParseError("empty file", 1)
    idx, (ln, toks) = _take_header(rows, 0, "format")
    if len(toks) != 2 or toks[1] != str(FORMAT_VERSION):
        raise ParseError(f"unsupported format version {toks[1:]}", ln)
    idx, (ln, toks) = _take_header(rows, idx, "kind")
    if len(toks) != 2 or toks[1] not in KINDS:
        raise ParseError(f"unknown kind {toks[1:]}", ln)
    kind = LAYOUTS[toks[1]]
    field = None
    if kind.name != "groupoid":
        idx, (ln, toks) = _take_header(rows, idx, "field")
        try:
            field = parse_field(" ".join(toks[1:]))
        except ValueError as e:
            raise ParseError(str(e), ln)
    idx, (ln, toks) = _take_header(rows, idx, "objects")
    labels = tuple(toks[1:])
    if not labels or len(set(labels)) != len(labels):
        raise ParseError("objects line must list distinct labels", ln)
    if kind.name == "groupoid":
        return _parse_groupoid(rows[idx:], labels)

    heads = {name: [] for name in kind.headers}
    widths = {slot.tag: slot.width for slot in kind.slots}
    dim_rows, records = [], []
    for row in rows[idx:]:
        ln, toks = row
        tag = toks[0]
        if tag in heads and len(toks) == _HEADER_WIDTH[tag]:
            if tag in _ONCE and heads[tag]:
                raise ParseError(f"repeated '{tag}' header", ln)
            heads[tag].append(row)
        elif tag == "dim" and kind.dim:
            dim_rows.append(row)
        elif widths.get(tag) == len(toks):
            records.append(row)
        else:   # before a missing header or dim can be blamed for it
            raise ParseError(f"unrecognized record '{' '.join(toks)}'", ln)
    frame, fields = _read_headers(kind, field, labels, heads, base_loader,
                                  rows[2][0], rows[3][0])
    if kind.dim:
        frame = frame._replace(dims=_read_dims(dim_rows, labels,
                                               len(kind.dim), rows[3][0]))
        fields["dims"] = frame.dims
    if kind.name == "bimonoid":
        fields["carrier"] = MkXObject(fields.pop("objects"),
                                      fields.pop("dims"))
    omit = heads.get("antipode") and heads["antipode"][0][1][1] == "no"
    fields.update(_read_slots(kind, frame, records, omit))
    out = _CLASSES[kind.name](**fields)
    if "base" in kind.headers:
        out._base_name = heads["base"][0][1][1]
    return out


def _read_headers(kind, field, labels, heads, base_loader, field_ln,
                  objects_ln):
    """The frame of a file and the constructor fields its headers give; a
    missing header is reported at the objects line, a bad base at its own."""
    if "antipode" in heads:
        if not heads["antipode"]:
            raise ParseError("missing 'antipode yes|no' header", objects_ln)
        ln, toks = heads["antipode"][0]
        if toks[1] not in ("yes", "no"):
            raise ParseError(f"bad antipode header '{toks[1]}'", ln)
    if kind.name == "weak-hopf":
        blocks, total = [], 0
        for ln, toks in heads["block"]:
            pair = tuple(_check_label(labels, t, ln) for t in toks[1:3])
            off, length = _int(toks[3], ln), _int(toks[4], ln)
            if length < 0:
                raise ParseError("negative dimension", ln)
            if off != total:
                raise ParseError("blocks do not tile the total space", ln)
            blocks.append((pair, off, length))
            total += length
        if not blocks:
            raise ParseError("weak-hopf file needs block lines", objects_ln)
        return (Frame(field, (), None, n=total),
                {"field": field, "total_dim": total, "blocks": tuple(blocks)})
    if kind.name == "graded-hopf":
        table = {}
        for ln, toks in heads["gmul"]:
            a, b, c = (_check_label(labels, t, ln) for t in toks[1:])
            if (a, b) in table:
                raise ParseError("duplicate gmul entry", ln)
            table[(a, b)] = c
        group = GroupTable(labels, table)
        try:
            group.validate()
        except GradedError as e:
            # the entry of the offending pair, else the group's declaration
            raise ParseError(str(e), next(
                (ln for ln, toks in heads["gmul"]
                 if tuple(toks[1:3]) == e.degrees), objects_ln))
        return (Frame(field, labels, None, group=group),
                {"field": field, "group": group})
    if "base" not in heads:
        return Frame(field, labels, None), {"field": field, "objects": labels}
    if not heads["base"]:
        raise ParseError(f"{kind.name} file needs a 'base <name>' header",
                         objects_ln)
    base_ln, (_, base_name) = heads["base"][0]
    side = heads["side"][0][1][1] if heads.get("side") else "right"
    if side not in ("right", "left"):
        raise ParseError(f"bad side '{side}'", heads["side"][0][0])
    if base_loader is None:
        raise ParseError(f"no loader available to resolve base '{base_name}'",
                         base_ln)
    try:
        base = base_loader(base_name)
    except ParseError as e:     # an error inside the base file names its line
        if e.line is not None:
            raise
        raise type(e)(str(e), base_ln) from None
    want = DualHopfCatData if kind.name == "comodule" else HopfCatData
    if not isinstance(base, want):
        raise KindMismatchError(f"{kind.name} base '{base_name}' must be a "
                                f"{want.layout.name}", base_ln)
    if base.objects != labels:
        raise ParseError(f"base '{base_name}' has objects {base.objects}, "
                         f"file declares {labels}", base_ln)
    if base.field != field:
        raise ParseError(f"base '{base_name}' is over field {base.field}, "
                         f"file declares {field}", field_ln)
    fields = {"base": base, "side": side} if kind.name == "module" \
        else {"base": base}
    return Frame(field, labels, None, base=base, side=side), fields


def _read_dims(dim_rows, labels, arity: int, objects_ln: int) -> dict:
    dims = {}
    for ln, toks in dim_rows:
        if len(toks) != arity + 2:
            raise ParseError(
                f"dim line needs {arity} labels and a dimension", ln)
        key = tuple(_check_label(labels, t, ln) for t in toks[1:-1])
        if arity == 1:
            key = key[0]
        if key in dims:
            raise ParseError(f"duplicate dim {toks[1:-1]}", ln)
        n = _int(toks[-1], ln)
        if n < 0:
            raise ParseError("negative dimension", ln)
        dims[key] = n
    for key in product(labels, repeat=arity):
        if (key[0] if arity == 1 else key) not in dims:
            raise ParseError(f"missing dim({','.join(key)})", objects_ln)
    return dims


def _read_slots(kind, frame, records, omit) -> dict:
    """Every slot's tensors, zero but for the records; an optional slot is
    None when ``omit``.  Each distinct scalar token is parsed once, and its
    one (immutable) scalar fills every cell that holds it."""
    field = frame.field
    zero = field.zero
    scalars = {}        # token -> its scalar
    cells = {}          # tag -> (slot, {key labels: (tensor, record shape)})
    out = {}
    for slot in kind.slots:
        if slot.optional and omit:
            out[slot.tag], cells[slot.tag] = None, (slot, None)
            continue
        table = {key: (slot.zeros(shape, zero), shape)
                 for key, shape in slot.shapes(frame)}
        cells[slot.tag] = (slot, table)
        store = {k[0] if len(k) == 1 else k: t for k, (t, _) in table.items()}
        out[slot.tag] = store if slot.keys else store[()]
    seen = set()
    for ln, toks in records:
        slot, table = cells[toks[0]]
        if table is None:
            raise ParseError(
                "antipode entry in a file declaring 'antipode no'", ln)
        end = 1 + len(slot.keys)
        key = tuple(toks[1:end])
        if key not in table:
            for t in key:
                _check_label(frame.labels, t, ln)
        t, shape = table[key]
        try:
            idx = [int(tok) for tok in toks[end:-1]]
        except ValueError:
            idx = [_int(tok, ln) for tok in toks[end:-1]]
        for i, d in zip(idx, shape):
            if not 0 <= i < d:
                raise ParseError(f"{slot.tag} index {tuple(idx)} out of "
                                 f"range for dims {shape}", ln)
        mark = (slot.tag, key, *idx)
        if mark in seen:
            raise ParseError(f"duplicate {slot.tag} entry at {key} "
                             f"{tuple(idx)}", ln)
        seen.add(mark)
        tok = toks[-1]
        v = scalars.get(tok)
        if v is None:
            v = scalars[tok] = _scalar(field, tok, ln)
        if v:
            slot.put(t, idx, v)
    return out


def _parse_groupoid(rows, objects):
    morphisms, names = [], set()
    tables = {"identity": {}, "compose": {}, "inverse": {}}
    for ln, toks in rows:
        tag = toks[0]
        if tag == "morphism" and len(toks) == 4:
            if toks[1] in names:
                raise ParseError(f"duplicate morphism '{toks[1]}'", ln)
            names.add(toks[1])
            for t in toks[2:]:
                _check_label(objects, t, ln)
            morphisms.append(tuple(toks[1:]))
        elif len(toks) == (4 if tag == "compose" else 3) and tag in tables:
            key = tuple(toks[1:3]) if tag == "compose" else toks[1]
            if tag == "identity":
                _check_label(objects, key, ln)
            if key in tables[tag]:
                raise ParseError(f"duplicate {tag} entry", ln)
            tables[tag][key] = toks[-1]
        else:
            raise ParseError(f"unrecognized record '{' '.join(toks)}'", ln)
    return GroupoidData(objects, tuple(morphisms), tables["identity"],
                        tables["compose"], tables["inverse"])


# -- path-level helpers ---------------------------------------------------------------

def load(path: str):
    """Parse a structure file, resolving module bases next to it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e.reason}",
                         data.count(b"\n", 0, e.start) + 1)

    def base_loader(name: str):
        d = os.path.dirname(path)
        for cand in (os.path.join(d, name), os.path.join(d, name + ".hc")):
            if os.path.exists(cand):
                try:
                    return load(cand)
                except ParseError as e:     # a line of the base file
                    e.path = e.path or cand
                    raise
        raise ParseError(f"cannot resolve base '{name}' next to {path}")

    return parse(text, base_loader)
