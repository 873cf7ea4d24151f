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
from .schema import LAYOUTS, MalformedDataError, check_shape, reindexer


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
    the views of a ``HopfCatData``'s structure constants they read, built
    once per call by ``Instances.view`` and indexed one label at a time:
    ``mult[x][y][z]``, ``comult[x][y]``, ``counit[x][y]``,
    ``antipode[x][y]``, ``unit[x]``, and ``dims[x][y]``, over the data's
    field, which ``check`` passes to every law.  The views hand over the
    interned sparse tensors, which the memo keys by identity, and the ints
    of the data's own ``dims`` table, which it keys by value, so the memo
    hits as it would on the tables."""

    def __init__(self, a: HopfCatData, report: Report):
        super().__init__(report, a.field)
        self.dims = self.view(a.dims)
        self.mult = self.view(a.mult, sp.tensor3)
        self.comult = self.view(a.comult, sp.tensor3)
        self.counit = self.view(a.counit, sp.vector)
        self.unit = self.view(a.unit, sp.vector)
        self.antipode = None if a.antipode is None else self.view(
            a.antipode, sp.columns, a.dims)


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
        for j, fibre in fibres.items():     # Σ_k c_jk S e_k, then ⊗ S e_j
            left = {}
            for k, c in fibre.items():
                for p, v in s[k].items():
                    left[p] = left[p] + c * v if p in left else c * v
            s_j = s[j]
            for p, x in left.items():
                base = p * d
                for q, y in s_j.items():
                    t = base + q
                    acc[t] = acc[t] + x * y if t in acc else x * y
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
    X = a.objects
    t = _Tensors(a, rep)
    check, M, C, E, D, unit = (t.check, t.mult, t.comult, t.counit, t.dims,
                               t.unit)

    # Each loop looks up what its own label changes, and passes it on.
    for x in X:
        Mx, Dx = M[x], D[x]
        for y in X:
            Mxy, My = Mx[y], M[y]
            for z in X:
                m, Mxz, Myz, Dz = Mxy[z], Mx[z], My[z], D[z]
                for w in X:
                    check("assoc", (x, y, z, w), sp.assoc, m, Mxz[w],
                          Myz[w], Mxy[w], Dz[w], Dx[w])
    for x in X:
        Mx, Mxx, Dx, ux = M[x], M[x][x], D[x], unit[x]
        for y in X:
            check("unit-left", (x, y), sp.unit_law, Mxx[y], ux, Dx[y], True)
            check("unit-right", (x, y), sp.unit_law, Mx[y][y], unit[y],
                  Dx[y], False)
    if level == "category":
        return rep

    for x in X:
        Cx, Ex, Dx = C[x], E[x], D[x]
        for y in X:
            d, delta, eps = Dx[y], Cx[y], Ex[y]
            check("coassoc", (x, y), sp.coassoc, delta, delta, delta,
                  delta, d, d, d)
            check("counit-left", (x, y), sp.counit_law, delta, eps, True)
            check("counit-right", (x, y), sp.counit_law, delta, eps, False)
    for x in X:
        Mx, Cx, Ex, Dx = M[x], C[x], E[x], D[x]
        for y in X:
            Mxy, cxy, exy, Cy, Ey, Dy = Mx[y], Cx[y], Ex[y], C[y], E[y], D[y]
            for z in X:
                m, dxz = Mxy[z], Dx[z]
                check("comult-mult", (x, y, z), sp.comult_mult, m, Cx[z],
                      cxy, Cy[z], m, m, dxz, dxz)
                check("counit-mult", (x, y, z), sp.counit_mult, m, Ex[z],
                      exy, Ey[z], Dy[z])
    for x in X:
        d, ux = D[x][x], unit[x]
        check("comult-unit", (x,), sp.comult_unit, C[x][x], ux, ux, ux, d, d)
        check("counit-unit", (x,), sp.counit_unit, ux, E[x][x])
    if level == "semihopf":
        return rep
    return _check_antipode_laws(a, rep, t)


def _check_antipode_laws(a: HopfCatData, rep: Report,
                         t: _Tensors | None = None) -> Report:
    """Append both antipode identities of ``a`` to ``rep``, its report at
    level 'semihopf', making it the report at level 'hopf'; ``t`` is the
    calling verifier's instances of ``a`` on ``rep``.  Over Δe_i = Σ h1⊗h2
    in A(x,y): Σ h1·S(h2) = ε(e_i)·1 in A(x,x) (left) and
    Σ S(h1)·h2 = ε(e_i)·1 in A(y,y) (right)."""
    t = t or _Tensors(a, rep)
    X, check = a.objects, t.check
    M, C, S, E, D, unit = t.mult, t.comult, t.antipode, t.counit, t.dims, \
        t.unit
    for x in X:
        Mx, Cx, Sx, Ex, ux, dxx = M[x], C[x], S[x], E[x], unit[x], D[x][x]
        for y in X:
            delta, s, eps = Cx[y], Sx[y], Ex[y]
            check("antipode-left", (x, y), sp.antipode_law, delta, s,
                  Mx[y][x], ux, eps, False, dxx, False)
            check("antipode-right", (x, y), sp.antipode_law, delta, s,
                  M[y][x][y], unit[y], eps, True, D[y][y], False)
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
    X = a.objects
    t = _Tensors(a, rep)
    check, M, C, S, E, D, unit = (t.check, t.mult, t.comult, t.antipode,
                                  t.counit, t.dims, t.unit)

    for x in X:
        Mx, Sx = M[x], S[x]
        for y in X:
            Mxy, Sxy, Sy = Mx[y], Sx[y], S[y]
            for z in X:
                check("antipode-antimult", (x, y, z), _antimult, Mxy[z],
                      M[z][y][x], Sx[z], Sy[z], Sxy, D[z][x])
    for x in X:
        check("antipode-unit", (x,), _antipode_unit, S[x][x], unit[x], D[x][x])
    for x in X:
        Sx, Cx, Ex = S[x], C[x], E[x]
        for y in X:
            s = Sx[y]
            check("antipode-anticomult", (x, y), _anticomult, s, Cx[y],
                  C[y][x], D[y][x])
            check("antipode-counit", (x, y), _antipode_counit, s, Ex[y],
                  E[y][x])

    # The three equivalent conditions.  Whether they hold is a property of
    # the instance, not an axiom, so they are recorded as measurements; only
    # their pairwise agreement is a hard check.  The twisted ones are the
    # antipode identities with the legs of Δ flipped first, the left one in
    # A(y,y) and the right one in A(x,x).
    for x in X:
        Mx, Cx, Sx, Ex, ux, dxx = M[x], C[x], S[x], E[x], unit[x], D[x][x]
        for y in X:
            delta, s, eps = Cx[y], Sx[y], Ex[y]
            c1 = check("antipode-left-twisted", (x, y), sp.antipode_law,
                       delta, s, M[y][x][y], unit[y], eps, True, D[y][y],
                       True, required=False)
            c2 = check("antipode-right-twisted", (x, y), sp.antipode_law,
                       delta, s, Mx[y][x], ux, eps, False, dxx, True,
                       required=False)
            c3 = check("antipode-involutive", (x, y), _involutive, s,
                       S[y][x], required=False)
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
        swap = reindexer(zero, lambda i, j, k: (j, i, k))
        mult = {(x, y, z): swap(a.mult[(z, y, x)],
                                (dims[(x, y)], dims[(y, z)], dims[(x, z)]))
                for x in X for y in X for z in X}
        comult = {(x, y): a.comult[(y, x)] for x in X for y in X}
        counit = {(x, y): a.counit[(y, x)] for x in X for y in X}
    if mode in ("coopposite", "opcop"):
        flip = reindexer(zero, lambda i, j, k: (i, k, j))
        comult = {key: flip(t, (dims[key],) * 3)
                  for key, t in comult.items()}

    antipode = None
    if a.antipode is not None:
        antipode, inverses = {}, {}     # id of an S -> its inverse
        for x in X:
            for y in X:
                if mode == "opcop":
                    antipode[(x, y)] = a.antipode[(y, x)]
                    continue
                # the inverse of S(x,y) for the opposite, of S(y,x) for the
                # coopposite, once per distinct matrix and shape
                u, v = (x, y) if mode == "opposite" else (y, x)
                once = (id(a.antipode[(u, v)]), a.dim(u, v))
                if once not in inverses:
                    inv = invert(a.antipode_map(u, v))
                    if isinstance(inv, NotInvertible):
                        raise MalformedDataError(
                            f"antipode at ({u},{v}) is singular; "
                            f"the {mode} antipode needs its inverse")
                    inverses[once] = [list(r) for r in inv.entries]
                antipode[(x, y)] = inverses[once]

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
    ranks = {}      # id of a composition tensor -> its rank
    for x in X:
        for y in X:
            for z in X:
                # the rank of the map: that of its fibres m(e_i, e_j) as
                # rows, once per distinct tensor
                m = a.mult[(x, y, z)]
                r = ranks.get(id(m))
                if r is None:
                    rows = [[raw(v) for v in fibre]
                            for slab in m for fibre in slab if any(fibre)]
                    r = ranks[id(m)] = len(_rref(f, rows)[1])
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
