"""Machine-readable outcome of a batch of exact axiom checks.

Every comparison goes through ``check_map_equal`` and every record through
``Report.add``.  A verifier that loops over object tuples checks through one
``Instances`` per call, bound to its field, which evaluates each distinct
axiom instance once: an instance is keyed by its law and its arguments,
hashed by Python itself.  The interned tensors hash by identity, and every
other argument (an int, a bool, a tuple) by value; an uninterned list or
dict cannot be hashed and raises ``TypeError``.  A repeated instance costs
one lookup and one record.  The laws it evaluates (the functions of
``sparse``, and the few beside the verifiers, that return both sides of an
identity) must therefore be pure: a law may not change its arguments, and
its sides may depend only on their values, so that equal arguments give
equal sides.  ``Instances.view`` is the one reader of the tables keyed by
objects: in one walk of a table it reads each distinct stored tensor into
sparse form (``sparse.vector``, ``tensor3`` or ``columns``), interns it,
and nests the result one label at a time.  A verifier builds its views
once per call; they hand over the interned tensors and the ints of
``dims``, so that the memo hits exactly as it would on the tables.  The
constructors that read a table without checking an axiom read it through
a view too.

``Report.items`` holds a record per objects tuple, and every verdict,
summary and table is read from those.  Only a ``--report`` file is folded
(``Report.lines``): there each passing item counts towards one line for its
axiom family, and each item that is not ok keeps its own line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from .scalars import FieldMismatchError


class PreconditionError(ValueError):
    """An operation was called on data that fails its stated precondition."""


class InternalInvariantError(AssertionError):
    """A theorem-backed internal cross-check failed; the input data is suspect."""


@dataclass(slots=True)
class CheckItem:
    axiom: str
    objects: tuple[str, ...]
    ok: bool
    witness: int | None = None
    residual: str = ""
    failures: int = 0
    required: bool = True   # False: a measured property, not an axiom

    def record(self) -> dict:
        return {
            "axiom": self.axiom,
            "objects": list(self.objects),
            "ok": self.ok,
            "witness": self.witness,
            "residual": self.residual,
            "failures": self.failures,
            "required": self.required,
        }

    def json_line(self) -> str:
        """``json.dumps(self.record()) + "\\n"``, byte for byte: the keys in
        their fixed order, each string escaped by the escaper ``json.dumps``
        uses, without building the dict or running the encoder."""
        witness = "null" if self.witness is None else self.witness
        return (f'{{"axiom": {_quote(self.axiom)}, '
                f'"objects": [{", ".join(map(_quote, self.objects))}], '
                f'"ok": {"true" if self.ok else "false"}, '
                f'"witness": {witness}, '
                f'"residual": {_quote(self.residual)}, '
                f'"failures": {self.failures}, '
                f'"required": {"true" if self.required else "false"}}}\n')


@dataclass
class Report:
    items: list[CheckItem] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(it.ok for it in self.items if it.required)

    @property
    def total_failures(self) -> int:
        return sum(it.failures for it in self.items if it.required)

    def failed(self) -> list[CheckItem]:
        return [it for it in self.items if it.required and not it.ok]

    def add(self, item: CheckItem):
        self.items.append(item)

    def extend(self, other: "Report"):
        self.items.extend(other.items)

    def by_axiom(self, axiom: str) -> list[CheckItem]:
        return [it for it in self.items if it.axiom == axiom]

    def lines(self) -> list[str]:
        """The lines of a ``--report`` file.  Each item that is not ok (a
        failing axiom or a noted measurement) is its own ``json_line``, in
        item order.  The passing items of one ``(axiom, required)`` family
        are one line, where the family's first passing item stood: its
        record with no objects, witness, residual or failures, and then
        ``"folded"``, the number of items the line stands for."""
        lines, folded = [], {}      # family -> [index of its line, count]
        for it in self.items:
            if not it.ok:
                lines.append(it.json_line())
            elif (family := (it.axiom, it.required)) in folded:
                folded[family][1] += 1
            else:
                folded[family] = [len(lines), 1]
                lines.append(None)
        for (axiom, required), (at, count) in folded.items():
            lines[at] = (f'{{"axiom": {_quote(axiom)}, "objects": [], '
                         f'"ok": true, "witness": null, "residual": "", '
                         f'"failures": 0, '
                         f'"required": {"true" if required else "false"}, '
                         f'"folded": {count}}}\n')
        return lines

    def summary(self) -> str:
        bad = self.failed()
        verdict = "pass" if not bad else "FAIL"
        return (f"{verdict}: {len(self.items) - len(bad)}/{len(self.items)} "
                f"checks ok, {self.total_failures} failing basis elements")

    def table(self) -> str:
        """One line per failing item, then the summary."""
        lines = []
        for it in self.items:
            if it.ok:
                continue
            status = "FAIL" if it.required else "note"
            line = (f"{status} {it.axiom:28s} ({','.join(it.objects)})"
                    f" witness={it.witness} residual={it.residual}")
            if it.failures > 1:
                line += f" [+{it.failures - 1} more]"
            lines.append(line)
        lines.append(self.summary())
        return "\n".join(lines)


def residual(field, lhs: dict, rhs: dict) -> str:
    """The nonzero coordinates of lhs − rhs, two sparse vectors of raw
    scalars (see ``sparse``), as ``[key]=value`` in key order with values
    written by ``field.fmt``; empty when the vectors agree.  The difference
    is reduced here (``Field.reduce``), the one place where the engine's
    unreduced GF(p) values are brought mod p.  Over GF(p) two sides that
    agree seldom agree as ints, so vectors with the same keys are first
    compared value by value mod p, and equal ones return at once."""
    if lhs == rhs:
        return ""
    p = field.p
    if p is not None and lhs.keys() == rhs.keys() \
            and not [k for k, v in lhs.items() if (v - rhs[k]) % p]:
        return ""
    diff = dict(lhs)
    for k, v in rhs.items():
        diff[k] = diff[k] - v if k in diff else -v
    diff = field.reduce(diff)
    return " ".join(f"[{k}]={field.fmt(diff[k])}" for k in sorted(diff))


def check_map_equal(report: Report, axiom: str, objects: tuple[str, ...],
                    lhs, rhs, required: bool = True) -> bool:
    """Record exact equality of two maps, checked basis element by element.

    The maps are ``LinMap`` or ``SparseMap`` values, compared in sparse column
    form.  Every domain basis vector is an independent instance; the first
    failing one is kept as witness together with the nonzero residual
    coordinates (lhs minus rhs) in row order.

    The column lists are compared whole first, with one ``==``.  Only when
    they differ is each column pair taken through ``residual``, which
    reduces the difference, so columns that agree only mod p, or up to an
    explicit zero, are still found equal.
    """
    lhs, rhs = lhs.sparse(), rhs.sparse()
    field = lhs.field
    if field is not rhs.field and field != rhs.field:
        raise FieldMismatchError(
            f"cannot compare maps over {field} and {rhs.field}")
    lcols, rcols = lhs.columns, rhs.columns
    if lhs.rows != rhs.rows or len(lcols) != len(rcols):
        raise ValueError(
            f"cannot compare a {lhs.rows}x{lhs.cols} map with a "
            f"{rhs.rows}x{rhs.cols} map")
    witness = None
    first = ""
    failures = 0
    if lcols != rcols:
        for j, (lcol, rcol) in enumerate(zip(lcols, rcols)):
            res = residual(field, lcol, rcol)
            if res:
                failures += 1
                if witness is None:
                    witness, first = j, res
    item = CheckItem(axiom, objects, failures == 0, witness, first,
                     failures, required)
    report.add(item)
    return item.ok


class _Tensor(list):
    """An interned sparse tensor or column list: hashed by identity, equal
    by value."""

    __slots__ = ()
    __hash__ = object.__hash__


class _Vector(dict):
    """An interned sparse vector: hashed by identity, equal by value."""

    __slots__ = ()
    __hash__ = object.__hash__


class Instances:
    """The axiom instances of one verifier call over ``field``, each
    distinct one evaluated once, with a record per objects tuple in
    ``report``.

    ``view`` reads the tables the instances range over.  It makes the
    tensors of its tables with equal sparse forms one object, keyed by
    ``repr``, which is exact on nested lists and dicts of ints and
    ``Fraction``s, and hands each out as a ``list`` or ``dict`` subclass
    that hashes by identity and keeps value equality; the plain form it
    copies is kept beside it.  ``check`` keys an instance by ``(law,
    args)``: interned tensors by identity, ints, bools and tuples by value,
    and an uninterned list or dict raises ``TypeError``.  The first
    instance of a key evaluates ``law(field, *args)``, with each interned
    tensor replaced by its plain form, which CPython subscripts faster than
    a subclass, and goes through ``check_map_equal``; each later one adds
    its own ``CheckItem``, with its own axiom, objects and ``required``,
    and the first one's outcome.

    The key is sound because the memo holds every first call's arguments,
    so an identity hash in it names a live object.  Two distinct objects
    whose hashes collide are told apart by value equality, and a pure law
    gives equal values equal outcomes.
    """

    __slots__ = ("report", "field", "_tensors", "_plain", "_seen")

    def __init__(self, report: Report, field):
        self.report = report
        self.field = field
        self._tensors = {}      # repr -> the one tensor of that form
        self._plain = {}        # id of an interned tensor -> its plain form
        self._seen = {}         # (law, args) -> the first record

    def view(self, table: dict, read=None, cols: dict | None = None) -> dict:
        """``table``, keyed by labels, label pairs or label triples, as
        nested dicts keyed by one label each: ``view(t)[x][y][z]`` is the
        entry of ``t[(x, y, z)]``, and ``view(t)[x]`` that of ``t[x]``.

        Without ``read`` an entry is the very object of ``table`` (an int
        of a ``dims`` table, a label of a group table).  With ``read``,
        ``sparse.vector``, ``tensor3`` or ``columns``, it is the interned
        sparse form of ``read(field, t)``, or of ``read(field, t,
        cols[key])`` with ``cols``, read once per distinct (stored object,
        ``cols[key]``): every key that holds the object gets the same
        interned tensor.  The column count is part of the memo's key
        because an empty matrix has as many columns as its key says,
        whichever keys share it.  The memo is keyed by ``id``, sound
        because ``table`` keeps each keyed object alive while it runs.

        A verifier builds its views once per call and looks each entry up
        in the loop where its last label is bound, so an inner loop pays
        only for what its own label changes, and no key tuple is built per
        instance.  ``check`` sees the interned tensors and the ints of
        ``dims`` themselves, and its memo hits as it would on the tables.
        """
        field, tensors, plain = self.field, self._tensors, self._plain
        seen, out, row, at = {}, {}, None, None
        for key, t in table.items():
            if read is not None:
                n = None if cols is None else cols[key]
                one = seen.get((id(t), n))
                if one is None:
                    s = read(field, t) if n is None else read(field, t, n)
                    form = repr(s)
                    one = tensors.get(form)
                    if one is None:
                        one = tensors[form] = (
                            _Vector if isinstance(s, dict) else _Tensor)(s)
                        plain[id(one)] = s
                    seen[id(t), n] = one
                t = one
            if type(key) is not tuple:
                out[key] = t
                continue
            # a table comes row by row, so each row's dict is looked up
            # once; keys in any other order still land where they belong
            if key[:-1] != row:
                row, at = key[:-1], out
                for label in row:
                    at = at.setdefault(label, {})
            at[key[-1]] = t
        return out

    def check(self, axiom: str, objects: tuple[str, ...], law, *args,
              required: bool = True) -> bool:
        first = self._seen.get((law, args))
        if first is None:
            report, plain = self.report, self._plain
            ok = check_map_equal(report, axiom, objects, *law(
                self.field, *[plain.get(id(a), a) for a in args]), required)
            self._seen[law, args] = report.items[-1]
            return ok
        self.report.add(CheckItem(axiom, objects, first.ok, first.witness,
                                  first.residual, first.failures, required))
        return first.ok


def check_condition(report: Report, axiom: str, objects: tuple[str, ...],
                    ok: bool, residual: str = "", witness: int | None = None,
                    failures: int | None = None, required: bool = True) -> bool:
    report.add(CheckItem(axiom, objects, ok, None if ok else witness,
                         "" if ok else residual,
                         (0 if ok else 1) if failures is None else failures,
                         required))
    return ok
