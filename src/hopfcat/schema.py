"""One slot table per kind: the single description of a kind's layout.

Every structure the library stores is a family of structure tensors indexed
by objects (or group elements).  A kind's ``Kind`` entry lists its slots; a
``Slot`` says, for one tensor family,

- its record tag, which is also the data class attribute holding it;
- its key letters: one per object (or group element) label the family is
  indexed by, none for a single tensor;
- one dimension rule per record index, in record order:
  ``d(x,y)``  the declared dimension of the pair (x,y) of key labels,
  ``base(y,z)`` the same dimension of the base structure (module-like kinds),
  ``d(s)``, ``d(st)``, ``d(s^-1)``, ``d(e)`` the dimension of a degree, of a
  product or inverse of degrees, or of the identity (graded kinds),
  ``n``       the total dimension (weak kinds, from the ``block`` headers);
- whether it is stored sparse (below), and else whether the record order
  is the transpose of the stored order: record ``antipode x y i j v`` is
  stored at ``antipode[(x, y)][j][i]`` (only a matrix is transposed);
- whether the slot is optional, present exactly when ``antipode yes``;
- for a module's action, the rules that apply under ``side left``.

``fileformat`` reads and writes every kind from these tables (the writer
walks the stored tensors itself, in record order), and ``check_shape``, the
``validate_shape`` of every data class, checks stored tensors against them.
Headers that are not slots (``antipode``, ``base``, ``side``, ``gmul``,
``block``) are handled by the reader and writer.

This module also owns the storage layouts.  A sparse slot (the weak
kind's) stores a tensor as one dict ``{record-order index tuple: scalar}``
of its nonzero constants: a missing key is zero, a stored zero is skipped
like a zero cell, and the writer sorts the keys (one linear pass, as the
reader and packing build them in record order).  Every other slot stores
nested lists of rank 1 to 3: ``zeros`` allocates a tensor, ``tensor``
builds one from its entries, and ``place`` / ``reshaped`` move the nonzero
entries of one tensor to the positions a function of their indices names.
Every structure tensor made from scratch goes through ``tensor``:
linearized groupoids, the stock fixtures, the unit module and the actions
of the tensor-product, canonical and dual Hopf modules.  Every construction
that re-indexes existing structure constants goes through ``place`` /
``reshaped``: duals and opposites, the module↔comodule maps, the free Hopf
module, and the matrix builders (``linalg.bilinear_map`` and
``linalg.split_map``).  ``report.Instances.view`` turns the lists of a
table into sparse form with ``sparse``'s ``vector``, ``tensor3`` and
``columns``.

Sharing: a structure may hold one tensor object under several keys, and
most do.  The reader gives all keys of a slot whose declared shape and
nonzero records (as text, in the same order) are equal one shared tensor,
a rewrite re-indexes each distinct tensor once per shape (``reindexer``),
and groupoid linearization builds each distinct tensor once.  So a tensor
is never written into once it is stored: an edit replaces a key's tensor
(``dict(table)`` and a new tensor under that key), and never writes into
the old one.  Every per-key pass does its work once per distinct object,
keyed by ``id`` in a memo that lives for one call: ``check_shape`` per
(object, shape), since an empty list stands for several shapes,
``report.Instances.view`` per (object, column count), for the same
reason, and the writer per object in a slot where tensors repeat.  Each memo is sound because
the table it reads keeps every keyed object alive while the call runs.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple


class MalformedDataError(ValueError):
    """Structure tensors inconsistent with the declared dimensions."""


class Frame(NamedTuple):
    """What the dimension rules read: labels, dims and per-kind context."""
    field: object
    labels: tuple[str, ...]          # objects or group elements; () if none
    dims: dict | None                # keyed by label pairs or by labels
    base: object = None              # the base structure of a module-like
    group: object = None             # the group table of a graded kind
    n: int = 0                       # total dimension of a weak kind
    side: str = "right"              # which action rule a module uses


def _rule(text: str, keys: str):
    """Compile one dimension rule into a function of (frame, key list)
    giving the dimension at each key of the list, in turn."""
    if text == "n":
        return lambda f, ks: [f.n] * len(ks)
    family, inner = text[:-1].split("(")
    if "," in inner:
        p, q = (keys.index(c) for c in inner.split(","))
        if family == "base":
            return lambda f, ks: [f.base.dims[k[p], k[q]] for k in ks]
        return lambda f, ks: [f.dims[k[p], k[q]] for k in ks]
    if inner == "e":
        return lambda f, ks: [f.dims[f.group.identity()]] * len(ks)
    if inner.endswith("^-1"):
        p = keys.index(inner[0])
        return lambda f, ks: [f.dims[f.group.inverse(k[p])] for k in ks]
    if len(inner) == 2:
        p, q = keys.index(inner[0]), keys.index(inner[1])
        return lambda f, ks: [f.dims[f.group.mul(k[p], k[q])] for k in ks]
    p = keys.index(inner)
    return lambda f, ks: [f.dims[k[p]] for k in ks]


def zeros(zero, shape):
    """Nested lists of ``zero`` in ``shape`` (of rank 1 to 3)."""
    if len(shape) == 1:
        return [zero] * shape[0]
    if len(shape) == 2:
        return [[zero] * shape[1] for _ in range(shape[0])]
    d1, d2, d3 = shape
    return [[[zero] * d3 for _ in range(d2)] for _ in range(d1)]


def _fits(t, shape) -> bool:
    """Whether the nested lists ``t`` have ``shape`` (of rank 1 to 3)."""
    if len(t) != shape[0]:
        return False
    for p in t if len(shape) > 1 else ():
        if len(p) != shape[1]:
            return False
        for q in p if len(shape) > 2 else ():
            if len(q) != shape[2]:
                return False
    return True


def _fits_sparse(t, shape) -> bool:
    """Whether ``t`` is a dict keyed by tuples of ``len(shape)`` ints (not
    bools), each in range for its axis: checked axis by axis."""
    if type(t) is not dict or t and (set(map(type, t)) != {tuple}
                                     or set(map(len, t)) != {len(shape)}):
        return False
    return all(set(map(type, axis)) == {int} and min(axis) >= 0
               and max(axis) < d for axis, d in zip(zip(*t), shape))


def nonzero_entries(t, rank: int) -> list:
    """(index tuple, value) of the nonzero entries of nested lists of
    rank 1 to 3, in index order."""
    if rank == 1:
        return [((i,), v) for i, v in enumerate(t) if v]
    if rank == 2:
        return [((i, j), v) for i, p in enumerate(t)
                for j, v in enumerate(p) if v]
    return [((i, j, k), v) for i, p in enumerate(t) for j, q in enumerate(p)
            for k, v in enumerate(q) if v]


def _put(t, idx, v):
    """Store ``v`` at the index tuple ``idx`` of nested lists ``t``."""
    for i in idx[:-1]:
        t = t[i]
    t[idx[-1]] = v


def tensor(zero, shape, entries):
    """The nested lists of ``shape`` (of rank 1 to 3) holding ``v`` at
    ``idx`` for each ``(idx, v)`` of ``entries`` and ``zero`` elsewhere:
    every structure tensor built from scratch comes from here."""
    t = zeros(zero, shape)
    if len(shape) == 1:
        for (i,), v in entries:
            t[i] = v
    elif len(shape) == 2:
        for (i, j), v in entries:
            t[i][j] = v
    else:
        for (i, j, k), v in entries:
            t[i][j][k] = v
    return t


def place(out, t, rank: int, where):
    """Write each nonzero entry ``t[idx]`` of the nested lists ``t`` (of
    ``rank`` 1 to 3) at ``out[where(*idx)]``; returns ``out``.  Every
    re-indexing of structure constants (a transpose, a leg swap, a block
    shift, a flattening of two factors into one) is a ``where``."""
    for idx, v in nonzero_entries(t, rank):
        _put(out, where(*idx), v)
    return out


def reshaped(t, rank: int, shape, zero, where):
    """The nested lists of ``shape`` holding each nonzero ``t[idx]`` at
    ``where(*idx)`` and ``zero`` elsewhere.  Take ``shape`` from the
    declared dimensions, not from ``t``: a factor of dimension 0 is stored
    as empty lists, which have lost the sizes of the factors after it."""
    return place(zeros(zero, shape), t, rank, where)


def reindexer(zero, where):
    """``reshaped`` for the call of one rewrite: ``f(t, shape)`` re-indexes
    each distinct (tensor object, ``shape``) once, by ``where``, and hands
    the same result to every key that asks again, so the rewrite keeps the
    sharing of its input.  The memo is keyed by ``id(t)``, sound while the
    input data keeps ``t`` alive; drop ``f`` when the rewrite returns."""
    memo = {}

    def f(t, shape):
        out = memo.get((id(t), shape))
        if out is None:
            out = memo[id(t), shape] = reshaped(t, len(shape), shape, zero,
                                                where)
        return out
    return f


class Slot:
    def __init__(self, tag: str, keys: str, dims: tuple[str, ...], *,
                 left: tuple[str, ...] | None = None, sparse: bool = False,
                 transposed: bool = False, optional: bool = False):
        self.tag, self.keys, self.dims, self.left = tag, keys, dims, left
        self.transposed, self.optional = transposed, optional
        self.sparse = sparse
        self.width = 2 + len(keys) + len(dims)     # tokens of one record
        self._rules = {side: [_rule(r, keys) for r in rules]
                       for side, rules in (("right", dims),
                                           ("left", left or dims))}

    def shapes(self, frame: Frame):
        """(key labels, dimensions of the tensor there in record index
        order) over the slot's whole key space, in canonical order: each
        rule is read for all keys in one pass."""
        keys = list(product(frame.labels, repeat=len(self.keys)))
        return zip(keys, zip(*[rule(frame, keys)
                               for rule in self._rules[frame.side]]))

    # Storage: a dict if sparse, else nested lists, transposed or not.

    def stored(self, data, key: tuple):
        """The stored tensor at ``key``: the slot itself when it has no
        keys, else the dict entry under the label or the label tuple."""
        if not key:
            return data
        return data.get(key[0] if len(key) == 1 else key)

    def tensor(self, shape: tuple, zero, entries):
        """The stored tensor of record-order ``shape`` holding ``v`` at each
        (record-order index tuple, ``v``) of ``entries``."""
        if self.sparse:
            return dict(entries)
        if self.transposed:
            return tensor(zero, shape[::-1],
                          ((idx[::-1], v) for idx, v in entries))
        return tensor(zero, shape, entries)


class Kind(NamedTuple):
    name: str
    labels: str | None           # "objects", "elements" or None
    dim: str                     # key letters of a `dim` line; "" if none
    headers: tuple[str, ...]     # non-slot headers, in canonical order
    slots: tuple[Slot, ...]
    frame: object = None         # data object -> Frame


def _objects_frame(a) -> Frame:
    return Frame(a.field, a.objects, a.dims)


def _weak_frame(w) -> Frame:
    offset = 0
    for (_, off, ln) in w.blocks:
        if off != offset or ln < 0:
            raise MalformedDataError("blocks do not tile the total space")
        offset += ln
    if offset != w.total_dim:
        raise MalformedDataError("blocks do not cover the total space")
    return Frame(w.field, (), None, n=w.total_dim)


def _module_frame(m) -> Frame:
    side = getattr(m, "side", "right")
    if side not in ("right", "left"):
        raise MalformedDataError(f"unknown module side '{side}'")
    return Frame(m.base.field, m.base.objects, m.dims, base=m.base,
                 side=side)


_ACTION = ("d(x,y)", "base(y,z)", "d(x,z)")

LAYOUTS = {kind.name: kind for kind in (
    Kind("hopf-category", "objects", "xy", ("antipode",), (
        Slot("mult", "xyz", ("d(x,y)", "d(y,z)", "d(x,z)")),
        Slot("unit", "x", ("d(x,x)",)),
        Slot("comult", "xy", ("d(x,y)", "d(x,y)", "d(x,y)")),
        Slot("counit", "xy", ("d(x,y)",)),
        Slot("antipode", "xy", ("d(x,y)", "d(y,x)"), transposed=True,
             optional=True),
    ), _objects_frame),
    Kind("dual-hopf-category", "objects", "xy", ("antipode",), (
        Slot("alg", "xy", ("d(x,y)", "d(x,y)", "d(x,y)")),
        Slot("unit", "xy", ("d(x,y)",)),
        Slot("cocomp", "xyz", ("d(x,z)", "d(x,y)", "d(y,z)")),
        Slot("counit", "x", ("d(x,x)",)),
        Slot("antipode", "xy", ("d(y,x)", "d(x,y)"), transposed=True,
             optional=True),
    ), _objects_frame),
    Kind("weak-hopf", None, "", ("antipode", "block"), (
        Slot("mult", "", ("n", "n", "n"), sparse=True),
        Slot("unit", "", ("n",), sparse=True),
        Slot("comult", "", ("n", "n", "n"), sparse=True),
        Slot("counit", "", ("n",), sparse=True),
        Slot("antipode", "", ("n", "n"), sparse=True, optional=True),
    ), _weak_frame),
    Kind("groupoid", "objects", "", (), ()),
    Kind("graded-hopf", "elements", "s", ("antipode", "gmul"), (
        Slot("mult", "st", ("d(s)", "d(t)", "d(st)")),
        Slot("unit", "", ("d(e)",)),
        Slot("comult", "s", ("d(s)", "d(s)", "d(s)")),
        Slot("counit", "s", ("d(s)",)),
        Slot("antipode", "s", ("d(s)", "d(s^-1)"), transposed=True,
             optional=True),
    ), lambda h: Frame(h.field, h.group.elements, h.dims, group=h.group)),
    Kind("module", "objects", "xy", ("base", "side"), (
        Slot("action", "xyz", _ACTION,
             left=("base(x,y)", "d(y,z)", "d(x,z)")),
    ), _module_frame),
    Kind("comodule", "objects", "xy", ("base",), (
        Slot("coaction", "xyz", ("d(x,z)", "d(x,y)", "base(y,z)")),
    ), _module_frame),
    Kind("hopf-module", "objects", "xy", ("base",), (
        Slot("action", "xyz", _ACTION),
        Slot("coaction", "xy", ("d(x,y)", "d(x,y)", "base(x,y)")),
    ), _module_frame),
    Kind("bimonoid", "objects", "xy", (), (
        Slot("mu", "xuy", ("d(x,u)", "d(u,y)", "d(x,y)")),
        Slot("eta", "x", ("d(x,x)",)),
        Slot("delta", "xy", ("d(x,y)", "d(x,y)", "d(x,y)")),
        Slot("eps", "xy", ("d(x,y)",)),
    ), lambda b: Frame(b.field, b.carrier.objects, b.carrier.dims)),
)}


def check_shape(obj):
    """Every declared dimension present and non-negative, and every slot's
    tensors shaped as its kind's table says; raises ``MalformedDataError``
    naming the first key whose tensor does not fit.  This is
    ``validate_shape`` of every data class.  A tensor object is checked
    once per stored shape it must have (``fitted``, keyed by ``id``)."""
    kind = type(obj).layout
    frame = kind.frame(obj)
    labels = frame.labels
    if len(set(labels)) != len(labels):
        raise MalformedDataError("duplicate labels")
    if kind.dim:
        for key in product(labels, repeat=len(kind.dim)):
            d = frame.dims.get(key[0] if len(key) == 1 else key)
            if d is None or d < 0:
                raise MalformedDataError(
                    f"missing or negative dim({','.join(key)})")
    fitted = set()      # (id of a tensor, stored shape) found to fit
    for slot in kind.slots:
        data = getattr(obj, slot.tag)
        if data is None and slot.optional:
            continue
        flip, fits = slot.transposed, _fits_sparse if slot.sparse else _fits
        for key, shape in slot.shapes(frame):
            t = slot.stored(data, key)
            if flip:
                shape = shape[::-1]
            if (id(t), shape) in fitted:
                continue
            if t is None or not fits(t, shape):
                raise MalformedDataError(
                    f"{slot.tag} tensor at ({','.join(key)}) malformed")
            fitted.add((id(t), shape))
