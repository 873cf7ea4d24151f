"""The central structure-constant record for finite k-linear Hopf categories.

A ``HopfCatData`` holds, over a fixed exact field and a finite ordered object
set X:

- hom dimensions d(x,y) (zero allowed; empty homs check vacuously),
- composition tensors  mult[x,y,z][i][j][k]:
      e(x,y)_i · e(y,z)_j  =  sum_k  c[i][j][k] e(x,z)_k,
- unit vectors unit[x] in A(x,x),
- comultiplication tensors comult[x,y][i][j][k]:
      delta(e(x,y)_i)  =  sum_{j,k}  D[i][j][k] e(x,y)_j ⊗ e(x,y)_k,
- counit covectors counit[x,y],
- optionally antipode matrices antipode[x,y][j][i]:
      S(e(x,y)_i)  =  sum_j  S[j][i] e(y,x)_j,   S(x,y): A(x,y) → A(y,x).

Hom(x,y) is A(y,x): composition consumes A(x,y)⊗A(y,z) and the groupoid
importer honors this.  The braiding is always the flip of tensor factors.

The verifier checks every axiom on every basis element of its domain, which
by linearity is a complete proof: both sides are contracted out of the
nonzero structure constants and compared as exact sparse vectors, so the work
follows the number of nonzero terms, not the size of dense matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import sparse as sp
from .linalg import (LinMap, NotInvertible, _rref, bilinear_map, invert,
                     split_map)
from .report import Instances, Report, PreconditionError, check_condition
from .scalars import Field
from .schema import LAYOUTS, MalformedDataError, check_shape, reshaped


class MissingAntipodeError(ValueError):
    """An antipode was required but the data does not carry one."""


LEVELS = ("category", "semihopf", "hopf")


@dataclass
class HopfCatData:
    field: Field
    objects: tuple[str, ...]
    dims: dict[tuple[str, str], int]
    mult: dict[tuple[str, str, str], list]
    unit: dict[str, list]
    comult: dict[tuple[str, str], list]
    counit: dict[tuple[str, str], list]
    antipode: dict[tuple[str, str], list] | None = None

    layout = LAYOUTS["hopf-category"]
    validate_shape = check_shape

    # -- shape ---------------------------------------------------------------

    def dim(self, x: str, y: str) -> int:
        return self.dims[(x, y)]

    @property
    def has_antipode(self) -> bool:
        return self.antipode is not None


    # -- structure maps as matrices -------------------------------------------

    def identity_map(self, x: str, y: str) -> LinMap:
        return LinMap.identity(self.field, self.dim(x, y))

    def mult_map(self, x: str, y: str, z: str) -> LinMap:
        """A(x,y)⊗A(y,z) → A(x,z), domain flattened leftmost-slowest."""
        return bilinear_map(self.field, self.mult[(x, y, z)], self.dim(x, y),
                            self.dim(y, z), self.dim(x, z))

    def unit_map(self, x: str) -> LinMap:
        return LinMap.column(self.field, self.unit[x])

    def comult_map(self, x: str, y: str) -> LinMap:
        """A(x,y) → A(x,y)⊗A(x,y)."""
        d = self.dim(x, y)
        return split_map(self.field, self.comult[(x, y)], d, d, d)

    def counit_map(self, x: str, y: str) -> LinMap:
        return LinMap.row(self.field, self.counit[(x, y)])

    def antipode_map(self, x: str, y: str) -> LinMap:
        if self.antipode is None:
            raise MissingAntipodeError("data carries no antipode")
        return LinMap(self.field, self.dim(y, x), self.dim(x, y),
                      self.antipode[(x, y)])

    # -- convenience ----------------------------------------------------------

    def strip_antipode(self) -> "HopfCatData":
        return replace(self, antipode=None)

    def with_antipode(self, antipode: dict) -> "HopfCatData":
        return replace(self, antipode=antipode)


class _Tensors(Instances):
    """The axiom instances of one verifier call (``report.Instances``) and
    the sparse views of a ``HopfCatData``'s structure constants they read,
    interned once per call."""

    def __init__(self, a: HopfCatData, report: Report):
        super().__init__(report)
        f = a.field
        self.field = f
        self.dims = a.dims
        self.mult = self.intern(sp.tensors(f, a.mult))
        self.comult = self.intern(sp.tensors(f, a.comult))
        self.unit = self.intern(sp.vectors(f, a.unit))
        self.counit = self.intern(sp.vectors(f, a.counit))
        self.antipode = None if a.antipode is None else self.intern({
            (x, y): sp.columns(f, a.antipode[(x, y)], a.dims[(x, y)])
            for x in a.objects for y in a.objects})

    def antipode_law(self, axiom: str, x, y, s_first: bool,
                     flip: bool = False, required: bool = True) -> bool:
        """Σ S(h1)·h2 (s_first, in A(y,y)) or Σ h1·S(h2) (in A(x,x)) over
        Δe_i = Σ h1⊗h2, legs flipped first when ``flip``, against ε(e_i)·1."""
        target = y if s_first else x
        m = self.mult[(y, x, y)] if s_first else self.mult[(x, y, x)]
        return self.check(axiom, (x, y), sp.antipode_law, self.field,
                          self.comult[(x, y)], self.antipode[(x, y)], m,
                          self.unit[target], self.counit[(x, y)], s_first,
                          self.dims[(target, target)], flip,
                          required=required)


# The derived antipode identities, both sides of each as a ``SparseMap``
# pair: each side is evaluated on each domain basis element in turn,
# flattened as the matrix form of the identity would be, so a column here is
# the column of the same index there.  Terms are summed only over nonzero
# constants.  S is in column form.

def _antimult(f, m, m_op, s_xz, s_yz, s_xy, rows: int):
    """S(e_i e_j) against S(e_j) S(e_i), for m: A(x,y)⊗A(y,z) → A(x,z)
    and m_op: A(z,y)⊗A(y,x) → A(z,x) of dimension rows."""
    lhs, rhs = [], []
    for i, m_i in enumerate(m):
        for j, s_j in enumerate(s_yz):
            lhs.append(sp.apply(s_xz, m_i.get(j, {})))
            rhs.append(sp.product(m_op, s_j, s_xy[i]))
    return sp.SparseMap(f, rows, lhs), sp.SparseMap(f, rows, rhs)


def _antipode_unit(f, s, unit: dict, d: int):
    return sp.SparseMap(f, d, [sp.apply(s, unit)]), sp.SparseMap(f, d, [unit])


def _anticomult(f, s, delta, delta_op, d: int):
    """Δ(S e_i) against (S⊗S)τΔ(e_i), into A(y,x)^⊗2 with d = dim A(y,x)."""
    flat = sp.flatten_pairs(delta_op, d)
    lhs, rhs = [], []
    for i, fibres in enumerate(delta):
        lhs.append(sp.apply(flat, s[i]))
        acc = {}
        for j, fibre in fibres.items():
            for k, c in fibre.items():
                sp.add_tensor(acc, {p: c * v for p, v in s[k].items()},
                              s[j], d)
        rhs.append(sp.nonzero(acc))
    return sp.SparseMap(f, d * d, lhs), sp.SparseMap(f, d * d, rhs)


def _antipode_counit(f, s, eps: dict, eps_op: dict):
    return (sp.SparseMap(f, 1, [sp.pairing(col, eps_op) for col in s]),
            sp.SparseMap(f, 1, [sp.pairing(e, eps)
                                for e in sp.identity(f, len(s))]))


def _involutive(f, s, s_op):
    return (sp.SparseMap(f, len(s), [sp.apply(s_op, col) for col in s]),
            sp.SparseMap(f, len(s), sp.identity(f, len(s))))


def verify_structure(a: HopfCatData, level: str = "hopf") -> Report:
    """Check every axiom instance of the requested level on every basis
    element.

    level 'category': associativity and unit laws of composition.
    level 'semihopf': additionally each hom is a coalgebra and composition and
    units are coalgebra maps.
    level 'hopf': additionally both antipode identities.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown level '{level}'")
    a.validate_shape()
    if level == "hopf" and a.antipode is None:
        raise MissingAntipodeError("level 'hopf' requires an antipode")
    rep = Report()
    X, f, dims = a.objects, a.field, a.dims
    t = _Tensors(a, rep)
    check, mult, unit, comult, counit = (t.check, t.mult, t.unit, t.comult,
                                         t.counit)

    for x in X:
        for y in X:
            for z in X:
                for w in X:
                    check("assoc", (x, y, z, w), sp.assoc, f,
                          mult[(x, y, z)], mult[(x, z, w)], mult[(y, z, w)],
                          mult[(x, y, w)], dims[(z, w)], dims[(x, w)])
    for x in X:
        for y in X:
            check("unit-left", (x, y), sp.unit_law, f, mult[(x, x, y)],
                  unit[x], dims[(x, y)], True)
            check("unit-right", (x, y), sp.unit_law, f, mult[(x, y, y)],
                  unit[y], dims[(x, y)], False)
    if level == "category":
        return rep

    for x in X:
        for y in X:
            d, delta = dims[(x, y)], comult[(x, y)]
            check("coassoc", (x, y), sp.coassoc, f, delta, delta, delta,
                  delta, d, d, d)
            check("counit-left", (x, y), sp.counit_law, f, delta,
                  counit[(x, y)], True)
            check("counit-right", (x, y), sp.counit_law, f, delta,
                  counit[(x, y)], False)
    for x in X:
        for y in X:
            for z in X:
                m = mult[(x, y, z)]
                check("comult-mult", (x, y, z), sp.comult_mult, f, m,
                      comult[(x, z)], comult[(x, y)], comult[(y, z)], m, m,
                      dims[(x, z)], dims[(x, z)])
                check("counit-mult", (x, y, z), sp.counit_mult, f, m,
                      counit[(x, z)], counit[(x, y)], counit[(y, z)],
                      dims[(y, z)])
    for x in X:
        d = dims[(x, x)]
        check("comult-unit", (x,), sp.comult_unit, f, comult[(x, x)],
              unit[x], unit[x], unit[x], d, d)
        check("counit-unit", (x,), sp.counit_unit, f, unit[x],
              counit[(x, x)])
    if level == "semihopf":
        return rep
    return _check_antipode_laws(a, rep, t)


def _check_antipode_laws(a: HopfCatData, rep: Report,
                         t: _Tensors | None = None) -> Report:
    """Append both antipode identities of ``a`` to ``rep``, its report at
    level 'semihopf', making it the report at level 'hopf'; ``t`` is the
    calling verifier's instances of ``a`` on ``rep``."""
    t = t or _Tensors(a, rep)
    for x in a.objects:
        for y in a.objects:
            t.antipode_law("antipode-left", x, y, s_first=False)
            t.antipode_law("antipode-right", x, y, s_first=True)
    return rep


def _require(a: HopfCatData, level: str, base: Report | None, what: str):
    """The guard of a check that presupposes data valid at ``level``.

    ``base`` is a passing report of ``verify_structure`` on ``a`` at that
    level or a higher one, already made by the caller, who has read its
    verdict: it is taken as it stands.  Without one the data is verified
    here, and ``PreconditionError`` raised when the report fails.
    """
    if base is None:
        base = verify_structure(a, level)
        if not base.overall:
            raise PreconditionError(f"{what}: {base.summary()}")


def check_antipode_theorems(a: HopfCatData,
                            base: Report | None = None) -> Report:
    """Derived antipode identities: anti-(co)multiplicativity, unit and counit
    preservation, and the three equivalent twisted-antipode conditions,
    reported per object pair together with their pairwise agreement.

    The data must pass level 'hopf'; ``base``, a passing report of
    ``verify_structure(a, "hopf")`` the caller already has, spares
    verifying it again.
    """
    _require(a, "hopf", base,
             "antipode theorems need data that passes level 'hopf'")
    rep = Report()
    X, f, dims = a.objects, a.field, a.dims
    t = _Tensors(a, rep)
    check, mult, s = t.check, t.mult, t.antipode

    for x in X:
        for y in X:
            for z in X:
                check("antipode-antimult", (x, y, z), _antimult, f,
                      mult[(x, y, z)], mult[(z, y, x)], s[(x, z)],
                      s[(y, z)], s[(x, y)], dims[(z, x)])
    for x in X:
        check("antipode-unit", (x,), _antipode_unit, f, s[(x, x)],
              t.unit[x], dims[(x, x)])
    for x in X:
        for y in X:
            check("antipode-anticomult", (x, y), _anticomult, f, s[(x, y)],
                  t.comult[(x, y)], t.comult[(y, x)], dims[(y, x)])
            check("antipode-counit", (x, y), _antipode_counit, f, s[(x, y)],
                  t.counit[(x, y)], t.counit[(y, x)])

    # The three equivalent conditions.  Whether they hold is a property of
    # the instance, not an axiom, so they are recorded as measurements; only
    # their pairwise agreement is a hard check.
    for x in X:
        for y in X:
            c1 = t.antipode_law("antipode-left-twisted", x, y, s_first=True,
                                flip=True, required=False)
            c2 = t.antipode_law("antipode-right-twisted", x, y,
                                s_first=False, flip=True, required=False)
            c3 = check("antipode-involutive", (x, y), _involutive, f,
                       s[(x, y)], s[(y, x)], required=False)
            check_condition(
                rep, "antipode-conditions-agree", (x, y),
                c1 == c2 == c3,
                residual=f"left-twisted={c1} right-twisted={c2} involutive={c3}")
    return rep


def transform(a: HopfCatData, mode: str) -> HopfCatData:
    """Opposite / coopposite / both, as exact rewrites of structure constants.

    The braiding is the basis flip.  When an antipode is present it is carried
    along: the combined opposite-coopposite keeps the same antipode matrices
    (relocated), while a single opposite or coopposite carries the inverse
    antipode, which always exists for valid Hopf data.
    """
    if mode not in ("opposite", "coopposite", "opcop"):
        raise ValueError(f"unknown transform mode '{mode}'")
    a.validate_shape()
    X, zero = a.objects, a.field.zero
    dims, mult = dict(a.dims), dict(a.mult)
    comult, counit = dict(a.comult), dict(a.counit)
    if mode in ("opposite", "opcop"):
        dims = {(x, y): a.dim(y, x) for x in X for y in X}
        mult = {(x, y, z): reshaped(
            a.mult[(z, y, x)], 3, (dims[(x, y)], dims[(y, z)], dims[(x, z)]),
            zero, lambda i, j, k: (j, i, k))
            for x in X for y in X for z in X}
        comult = {(x, y): a.comult[(y, x)] for x in X for y in X}
        counit = {(x, y): a.counit[(y, x)] for x in X for y in X}
    if mode in ("coopposite", "opcop"):
        comult = {key: reshaped(t, 3, (dims[key],) * 3, zero,
                                lambda i, j, k: (i, k, j))
                  for key, t in comult.items()}

    antipode = None
    if a.antipode is not None:
        antipode = {}
        for x in X:
            for y in X:
                if mode == "opcop":
                    antipode[(x, y)] = a.antipode[(y, x)]
                    continue
                # the inverse of S(x,y) for the opposite, of S(y,x) for the
                # coopposite
                u, v = (x, y) if mode == "opposite" else (y, x)
                inv = invert(a.antipode_map(u, v))
                if isinstance(inv, NotInvertible):
                    raise MalformedDataError(
                        f"antipode at ({u},{v}) is singular; "
                        f"the {mode} antipode needs its inverse")
                antipode[(x, y)] = [list(r) for r in inv.entries]

    return HopfCatData(a.field, X, dims, mult, dict(a.unit), comult, counit,
                       antipode)


def check_strictness(a: HopfCatData, base: Report | None = None) -> Report:
    """Surjectivity of every composition map, reported per triple, plus the
    loop-only variant and their (theorem-backed) agreement on this instance.

    The data must be valid at level 'category'; ``base``, a passing report
    of ``verify_structure`` on ``a`` at any level, spares verifying it
    again.
    """
    _require(a, "category", base,
             "strictness needs data valid at level 'category'")
    rep = Report()
    X, f, raw = a.objects, a.field, a.field.raw
    for x in X:
        for y in X:
            for z in X:
                # the rank of the map: that of its fibres m(e_i, e_j) as rows
                rows = [[raw(v) for v in fibre]
                        for slab in a.mult[(x, y, z)] for fibre in slab
                        if any(fibre)]
                r = len(_rref(f, rows)[1])
                ok = r == a.dim(x, z)
                check_condition(rep, "compose-surjective", (x, y, z), ok,
                                residual=f"rank {r} < {a.dim(x, z)}")
                if x == z:
                    check_condition(rep, "compose-surjective-loop", (x, y), ok,
                                    residual=f"rank {r} < {a.dim(x, z)}")
    all_surj = all(it.ok for it in rep.by_axiom("compose-surjective"))
    loops_surj = all(it.ok for it in rep.by_axiom("compose-surjective-loop"))
    check_condition(rep, "strictness-conditions-agree", (),
                    all_surj == loops_surj,
                    residual=f"all={all_surj} loops={loops_surj}")
    return rep


def is_strict(a: HopfCatData) -> bool:
    rep = check_strictness(a)
    return all(it.ok for it in rep.by_axiom("compose-surjective"))
