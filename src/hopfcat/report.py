"""Machine-readable outcome of a batch of exact axiom checks.

Every comparison goes through ``check_map_equal`` and every record through
``Report.add``.  A verifier that loops over object tuples checks through one
``Instances`` per call, which evaluates each distinct axiom instance once:
an instance is keyed by its law and the identity of each argument, which
the memo keeps alive, so a repeated instance costs one lookup and one
record.  The laws it evaluates (the functions of ``sparse``, and the few
beside the verifiers, that return both sides of an identity) must therefore
be pure: a law may not change its arguments, and its sides may depend only
on their values, so that the same arguments give the same sides.
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
    unreduced GF(p) values are brought mod p."""
    if lhs == rhs:
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


class Instances:
    """The axiom instances of one verifier call, each distinct one evaluated
    once, with a record per objects tuple in ``report``.

    ``intern`` makes the tensors of a table with equal sparse forms one
    object, keyed by ``repr``, which is exact on nested lists and dicts of
    ints and ``Fraction``s.  ``check`` keys an instance by its law and the
    identity of every argument.  The first instance of a key goes through
    ``check_map_equal``; each later one adds its own ``CheckItem``, with its
    own axiom, objects and ``required``, and the first one's outcome.

    The key is sound because the memo holds every first call's arguments:
    each ``id`` in a stored key names a live object, so an argument with
    that ``id`` is that very object, and a law is pure.  Arguments that are
    equal but distinct objects only miss, which costs an evaluation and
    never changes an outcome.  So a caller passes its tensors interned, and
    its dimensions and flags as they stand in its tables or as literals,
    never in a tuple or an int built afresh per call.
    """

    __slots__ = ("report", "_tensors", "_seen")

    def __init__(self, report: Report):
        self.report = report
        self._tensors = {}      # repr -> the one tensor of that form
        self._seen = {}         # key -> (first record, its arguments)

    def intern(self, table: dict) -> dict:
        tensors = self._tensors
        return {key: tensors.setdefault(repr(t), t)
                for key, t in table.items()}

    def check(self, axiom: str, objects: tuple[str, ...], law, *args,
              required: bool = True) -> bool:
        key = (law, *map(id, args))
        report = self.report
        seen = self._seen.get(key)
        if seen is None:
            ok = check_map_equal(report, axiom, objects, *law(*args),
                                 required)
            self._seen[key] = report.items[-1], args
            return ok
        first = seen[0]
        report.add(CheckItem(axiom, objects, first.ok, first.witness,
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
