"""Dual Hopf categories: per-pair algebras with cocomposition across objects.

A ``DualHopfCatData`` stores, for each ordered pair, a unital algebra C(x,y)
(mult tensor ``alg`` and unit vector), cocomposition tensors

    cocomp[x,y,z][k][a][b]:  delta(f(x,z)_k) = sum  T[k][a][b] f(x,y)_a ⊗ f(y,z)_b,

counit covectors per object on C(x,x), and optional antipode matrices
S(x,y): C(y,x) → C(x,y).

``dualize`` passes to coordinate duals of the chosen bases, so dualizing twice
is literal identity of data: C(x,y) = A(y,x)* carries the opposite convolution
product of A's comultiplication, the cocomposition is the transpose of A's
composition tensor with the two output legs swapped, the unit of C(x,y) is
A's counit covector at (y,x), the counit at x is evaluation at A's unit, and
the antipode is the transpose of A's.

``verify_dual`` evaluates both sides of every axiom on every basis element
through the shared laws of ``sparse``, over the nonzero constants.
"""

from __future__ import annotations

from . import sparse as sp
from .core import HopfCatData
from .report import Instances, Report
from .scalars import Field
from .schema import LAYOUTS, check_shape, reindexer
from .value import Value


class DualHopfCatData(Value):
    _fields = ("field", "objects", "dims", "alg", "unit", "cocomp", "counit",
               "antipode")

    # alg: the mult tensor of C(x,y); unit: the unit vector of C(x,y);
    # cocomp: T[k][a][b]; counit: a covector on C(x,x)
    def __init__(self, field: Field, objects: tuple[str, ...],
                 dims: dict[tuple[str, str], int],
                 alg: dict[tuple[str, str], list],
                 unit: dict[tuple[str, str], list],
                 cocomp: dict[tuple[str, str, str], list],
                 counit: dict[str, list],
                 antipode: dict[tuple[str, str], list] | None = None):
        self.field = field
        self.objects = objects
        self.dims = dims
        self.alg = alg
        self.unit = unit
        self.cocomp = cocomp
        self.counit = counit
        self.antipode = antipode

    layout = LAYOUTS["dual-hopf-category"]
    validate_shape = check_shape

    def dim(self, x: str, y: str) -> int:
        return self.dims[(x, y)]

    @property
    def has_antipode(self) -> bool:
        return self.antipode is not None


    def strip_antipode(self) -> "DualHopfCatData":
        return type(self)(self.field, self.objects, self.dims, self.alg,
                          self.unit, self.cocomp, self.counit)


def verify_dual(c: DualHopfCatData) -> Report:
    """All dual-category axioms, on every basis element: per-pair unital
    algebras, coassociative counital cocomposition, cocomposition and counits
    being algebra maps, and — if present — both dual antipode identities."""
    c.validate_shape()
    rep = Report()
    inst = Instances(rep, c.field)
    X, view, check = c.objects, inst.view, inst.check
    A, T = view(c.alg, sp.tensor3), view(c.cocomp, sp.tensor3)
    U, counit = view(c.unit, sp.vector), view(c.counit, sp.vector)
    D = view(c.dims)

    for x in X:
        Ax, Ux, Dx = A[x], U[x], D[x]
        for y in X:
            m, u, d = Ax[y], Ux[y], Dx[y]
            check("alg-assoc", (x, y), sp.assoc, m, m, m, m, d, d)
            check("alg-unit-left", (x, y), sp.unit_law, m, u, d, True)
            check("alg-unit-right", (x, y), sp.unit_law, m, u, d, False)

    for x in X:
        Tx, Dx = T[x], D[x]
        for y in X:
            Txy, Ty, Dy, dxy = Tx[y], T[y], D[y], Dx[y]
            for z in X:
                Txz, Tyz, Dz, txyz, dyz = Tx[z], Ty[z], D[z], Txy[z], Dy[z]
                for u in X:
                    check("cocomp-coassoc", (x, y, z, u), sp.coassoc,
                          Txz[u], txyz, Txy[u], Tyz[u], dxy, dyz, Dz[u])
    for x in X:
        Tx, Txx, ex = T[x], T[x][x], counit[x]
        for y in X:
            check("cocomp-counit-left", (x, y), sp.counit_law, Txx[y], ex,
                  True)
            check("cocomp-counit-right", (x, y), sp.counit_law, Tx[y][y],
                  counit[y], False)

    for x in X:
        Ax, Tx, Ux, Dx = A[x], T[x], U[x], D[x]
        for y in X:
            Txy, axy, uxy, dl = Tx[y], Ax[y], Ux[y], Dx[y]
            Ay, Uy, Dy = A[y], U[y], D[y]
            for z in X:
                # cocomposition is an algebra map into the componentwise
                # product on C(x,y)⊗C(y,z)
                cc, dr = Txy[z], Dy[z]
                check("cocomp-mult", (x, y, z), sp.comult_mult, Ax[z], cc,
                      cc, cc, axy, Ay[z], dl, dr)
                check("cocomp-unit", (x, y, z), sp.comult_unit, cc, Ux[z],
                      uxy, Uy[z], dl, dr)
    for x in X:
        ex = counit[x]
        check("counit-mult", (x,), sp.counit_mult, A[x][x], ex, ex, ex,
              D[x][x])
        check("counit-unit", (x,), sp.counit_unit, U[x][x], ex)

    if c.antipode is not None:
        # S(x,y): C(y,x) → C(x,y), in column form
        S = view(c.antipode, sp.columns,
                 {(x, y): c.dims[(y, x)] for x in X for y in X})
        for x in X:
            Tx, Sx, Ax, Ux, Dx, ex = T[x], S[x], A[x], U[x], D[x], counit[x]
            for y in X:
                cc = Tx[y][x]   # C(x,x) → C(x,y)⊗C(y,x)
                check("dual-antipode-left", (x, y), sp.antipode_law, cc,
                      Sx[y], Ax[y], Ux[y], ex, False, Dx[y], False)
                check("dual-antipode-right", (x, y), sp.antipode_law, cc,
                      S[y][x], A[y][x], U[y][x], ex, True, D[y][x], False)
    return rep


def _reversing(zero):
    """``f(t, shape)``: ``t`` with its index order reversed, for example
    t[i][j][k] at [k][j][i], once per distinct tensor and shape
    (``schema.reindexer``): every tensor of a coordinate dual, either way
    round."""
    return reindexer(zero, lambda *idx: idx[::-1])


def dualize(a: HopfCatData) -> DualHopfCatData:
    """Coordinate-dual of a (semi-)Hopf category on the dual bases."""
    a.validate_shape()
    X, rev = a.objects, _reversing(a.field.zero)
    dims = {(x, y): a.dim(y, x) for x in X for y in X}
    # opposite convolution: (f_a f_b)(e_i) = <f_a, e_i(2)><f_b, e_i(1)>
    alg = {(x, y): rev(a.comult[(y, x)], (dims[(x, y)],) * 3)
           for x in X for y in X}
    unit = {(x, y): a.counit[(y, x)] for x in X for y in X}
    # A(z,y)⊗A(y,x) → A(z,x) read backwards: C(x,z) → C(x,y)⊗C(y,z)
    cocomp = {(x, y, z): rev(a.mult[(z, y, x)],
                             (dims[(x, z)], dims[(x, y)], dims[(y, z)]))
              for x in X for y in X for z in X}
    counit = {x: a.unit[x] for x in X}
    antipode = None
    if a.antipode is not None:    # the transpose of S: A(y,x) → A(x,y)
        antipode = {(x, y): rev(a.antipode[(y, x)],
                                (dims[(x, y)], dims[(y, x)]))
                    for x in X for y in X}
    return DualHopfCatData(a.field, X, dims, alg, unit, cocomp, counit,
                           antipode)


def undualize(c: DualHopfCatData) -> HopfCatData:
    """Inverse of ``dualize`` on the double-dual basis identification."""
    c.validate_shape()
    X, rev = c.objects, _reversing(c.field.zero)
    dims = {(x, y): c.dim(y, x) for x in X for y in X}
    mult = {(x, y, z): rev(c.cocomp[(z, y, x)],
                           (dims[(x, y)], dims[(y, z)], dims[(x, z)]))
            for x in X for y in X for z in X}
    unit = {x: c.counit[x] for x in X}
    comult = {(x, y): rev(c.alg[(y, x)], (dims[(x, y)],) * 3)
              for x in X for y in X}
    counit = {(x, y): c.unit[(y, x)] for x in X for y in X}
    antipode = None
    if c.antipode is not None:    # the transpose of S: C(x,y) → C(y,x)
        antipode = {(x, y): rev(c.antipode[(y, x)],
                                (dims[(y, x)], dims[(x, y)]))
                    for x in X for y in X}
    return HopfCatData(c.field, X, dims, mult, unit, comult, counit, antipode)
