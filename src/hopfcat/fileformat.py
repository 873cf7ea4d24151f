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
The reader shares equal tensors (see ``schema`` on sharing).  Module-like
kinds name their base with `base <name>`, resolved by the loader next to
the file (adding the .hc suffix when absent); the loader keeps the base
file's path, and refuses a cycle of base files.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from contextvars import ContextVar
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
            + [f"identity {x} {g.identities[x]}" for x in g.objects
               if x in g.identities]
            + [f"compose {a} {b} {c}" for (a, b), c in sorted(g.compose.items())]
            + [f"inverse {a} {b}" for a, b in sorted(g.inverses.items())])


def _tensors(slot, data, labels) -> list:
    """(record head, stored tensor) of each key of ``slot``, in canonical
    key order: the tag and the key labels, and the tensor read straight
    from ``data``."""
    tag, arity = slot.tag, len(slot.keys)
    if arity == 0:
        return [(tag, data)]
    if arity == 1:
        return [(f"{tag} {x}", data[x]) for x in labels]
    return [(f"{tag} {' '.join(key)}", data[key])
            for key in product(labels, repeat=arity)]


def serialize(obj) -> str:
    """The canonical text of ``obj``, in one walk over its tensors.  The
    record lines of the nonzero cells of a run of (head, tensor) pairs
    are made by one comprehension for their rank (an empty tensor, of a
    factor of dimension 0, gives none), a transposed slot's column by
    column so that its records come in record index order, and a sparse
    slot's keys sorted.  A slot where most keys hold a tensor of their own
    is one run, head and all.  In a slot where at most half as many tensor
    objects as keys are distinct, each distinct tensor is walked once
    without a head, in ``tails`` keyed by its ``id``, and each key
    prefixes its head to those lines.  (A prefix costs less than a walk,
    but a walk per distinct tensor costs more than one run unless tensors
    repeat that often.)  Each distinct scalar object is formatted once per
    call, in ``texts`` keyed by its ``id``.  Both memos are sound because
    ``obj`` keeps every scalar and tensor alive while the call runs."""
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
    texts = {}              # id of a scalar -> its text
    get = texts.get

    def text(v) -> str:
        s = texts[id(v)] = fmt(v)
        return s

    def cells(tensors, slot) -> list[str]:
        """The record lines of the nonzero cells of each (head, tensor of
        ``slot``) of ``tensors``, in turn."""
        if slot.sparse:
            return [" ".join((head, *map(str, idx), get(id(v)) or text(v)))
                    for head, t in tensors for idx, v in sorted(t.items())
                    if v]
        if len(slot.dims) == 1:
            return [f"{head} {i} {get(id(v)) or text(v)}"
                    for head, t in tensors for i, v in enumerate(t) if v]
        if slot.transposed:         # stored [j][i], written (i, j)
            return [f"{head} {i} {j} {get(id(v)) or text(v)}"
                    for head, t in tensors
                    for i, col in enumerate(zip(*t))
                    for j, v in enumerate(col) if v]
        if len(slot.dims) == 2:
            return [f"{head} {i} {j} {get(id(v)) or text(v)}"
                    for head, t in tensors for i, p in enumerate(t)
                    for j, v in enumerate(p) if v]
        return [f"{head} {i} {j} {k} {get(id(v)) or text(v)}"
                for head, t in tensors for i, p in enumerate(t)
                for j, q in enumerate(p) for k, v in enumerate(q) if v]
    for slot in sorted(kind.slots, key=lambda s: s.tag):
        data = getattr(obj, slot.tag)
        if data is None:
            continue
        tensors = _tensors(slot, data, frame.labels)
        distinct = {id(t): t for _, t in tensors}
        if 2 * len(distinct) > len(tensors):    # most keys hold their own
            lines += cells(tensors, slot)
            continue
        tails = {k: cells((("", t),), slot)
                 for k, t in distinct.items()}
        lines += [head + tail for head, t in tensors for tail in tails[id(t)]]
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
    one (immutable) scalar fills every cell that holds it.  The records
    are first gathered per key, by index (``found``).  Then the keys of
    one slot whose shape and nonzero records are equal get one shared
    tensor, built once (``shared``, keyed by the shape, the indices and
    the scalar objects in record order: the same records as text, in the
    same order)."""
    field = frame.field
    scalars = {}        # token -> its scalar
    # tag -> (slot, {key labels: (shape, {idx: scalar})}, end of the key)
    cells = {}
    for slot in kind.slots:
        cells[slot.tag] = (slot, None if slot.optional and omit else
                           {key: (shape, {})
                            for key, shape in slot.shapes(frame)},
                           1 + len(slot.keys))
    zeros = False       # whether some record holds an explicit zero
    for ln, toks in records:
        slot, table, end = cells[toks[0]]
        if table is None:
            raise ParseError(
                "antipode entry in a file declaring 'antipode no'", ln)
        key = tuple(toks[1:end])
        entry = table.get(key)
        if entry is None:
            for t in key:
                _check_label(frame.labels, t, ln)
            entry = table[key]
        shape, found = entry
        try:
            idx = tuple(map(int, toks[end:-1]))
        except ValueError:
            idx = tuple([_int(tok, ln) for tok in toks[end:-1]])
        for i, d in zip(idx, shape):
            if not 0 <= i < d:
                raise ParseError(f"{slot.tag} index {idx} out of "
                                 f"range for dims {shape}", ln)
        if idx in found:
            raise ParseError(f"duplicate {slot.tag} entry at {key} {idx}",
                             ln)
        tok = toks[-1]
        v = scalars.get(tok)
        if v is None:
            v = scalars[tok] = _scalar(field, tok, ln)
            zeros = zeros or not v
        found[idx] = v
    out, zero = {}, field.zero
    for slot, table, _ in cells.values():
        if table is None:
            out[slot.tag] = None
            continue
        if zeros:
            table = {key: (shape, {idx: v for idx, v in found.items() if v})
                     for key, (shape, found) in table.items()}
        shared, store = {}, {}
        for key, (shape, found) in table.items():
            sig = (shape, *found, *map(id, found.values()))
            t = shared.get(sig)
            if t is None:
                t = shared[sig] = slot.tensor(shape, zero, found.items())
            store[key[0] if len(key) == 1 else key] = t
        out[slot.tag] = store if slot.keys else store[()]
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

# The os.stat identities of the files whose bases ``load`` is resolving.
# ``load`` recurses through itself, not a private helper, so that a wrapper
# of ``load`` sees every file read, base files included.
_READING: ContextVar[tuple] = ContextVar("_READING", default=())


def load(path: str):
    """Parse a structure file, resolving module bases next to it.  The path
    of the base file read is kept as ``_base_path``, next to
    ``_base_name``, so that a caller can refuse to write over it.  A base
    file that is already being read (the file itself, or a file whose base
    is being resolved) is a cycle of base files, and a ``ParseError`` at
    the ``base`` line."""
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        data = fh.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e.reason}",
                         data.count(b"\n", 0, e.start) + 1)
    reading = _READING.get() + ((st.st_dev, st.st_ino),)
    bases = []

    def base_loader(name: str):
        d = os.path.dirname(path)
        for cand in (os.path.join(d, name), os.path.join(d, name + ".hc")):
            if os.path.isfile(cand):
                st = os.stat(cand)
                if (st.st_dev, st.st_ino) in reading:
                    raise ParseError(f"base '{name}' names {cand}, which "
                                     f"is already being read: a cycle of "
                                     f"base files")
                token = _READING.set(reading)
                try:
                    base = load(cand)
                except ParseError as e:     # a line of the base file
                    e.path = e.path or cand
                    raise
                finally:
                    _READING.reset(token)
                bases.append(cand)
                return base
        raise ParseError(f"cannot resolve base '{name}' next to {path}")

    out = parse(text, base_loader)
    if bases:
        out._base_path = bases[0]
    return out
