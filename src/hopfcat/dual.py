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

from dataclasses import dataclass, replace

from . import sparse as sp
from .core import HopfCatData
from .report import Instances, Report
from .scalars import Field
from .schema import LAYOUTS, check_shape, reshaped


@dataclass
class DualHopfCatData:
    field: Field
    objects: tuple[str, ...]
    dims: dict[tuple[str, str], int]
    alg: dict[tuple[str, str], list]           # mult tensor of C(x,y)
    unit: dict[tuple[str, str], list]          # unit vector of C(x,y)
    cocomp: dict[tuple[str, str, str], list]   # T[k][a][b]
    counit: dict[str, list]                    # covector on C(x,x)
    antipode: dict[tuple[str, str], list] | None = None

    layout = LAYOUTS["dual-hopf-category"]
    validate_shape = check_shape

    def dim(self, x: str, y: str) -> int:
        return self.dims[(x, y)]

    @property
    def has_antipode(self) -> bool:
        return self.antipode is not None


    def strip_antipode(self) -> "DualHopfCatData":
        return replace(self, antipode=None)


def verify_dual(c: DualHopfCatData) -> Report:
    """All dual-category axioms, on every basis element: per-pair unital
    algebras, coassociative counital cocomposition, cocomposition and counits
    being algebra maps, and — if present — both dual antipode identities."""
    c.validate_shape()
    rep = Report()
    inst = Instances(rep)
    X, f, dims, check = c.objects, c.field, c.dims, inst.check
    alg, cocomp = (inst.intern(sp.tensors(f, t)) for t in (c.alg, c.cocomp))
    unit, counit = (inst.intern(sp.vectors(f, v)) for v in (c.unit, c.counit))

    for x in X:
        for y in X:
            m, d = alg[(x, y)], dims[(x, y)]
            check("alg-assoc", (x, y), sp.assoc, f, m, m, m, m, d, d)
            check("alg-unit-left", (x, y), sp.unit_law, f, m, unit[(x, y)],
                  d, True)
            check("alg-unit-right", (x, y), sp.unit_law, f, m, unit[(x, y)],
                  d, False)

    for x in X:
        for y in X:
            for z in X:
                for u in X:
                    check("cocomp-coassoc", (x, y, z, u), sp.coassoc, f,
                          cocomp[(x, z, u)], cocomp[(x, y, z)],
                          cocomp[(x, y, u)], cocomp[(y, z, u)],
                          dims[(x, y)], dims[(y, z)], dims[(z, u)])
    for x in X:
        for y in X:
            check("cocomp-counit-left", (x, y), sp.counit_law, f,
                  cocomp[(x, x, y)], counit[x], True)
            check("cocomp-counit-right", (x, y), sp.counit_law, f,
                  cocomp[(x, y, y)], counit[y], False)

    for x in X:
        for y in X:
            for z in X:
                # cocomposition is an algebra map into the componentwise
                # product on C(x,y)⊗C(y,z)
                cc, dl, dr = cocomp[(x, y, z)], dims[(x, y)], dims[(y, z)]
                check("cocomp-mult", (x, y, z), sp.comult_mult, f,
                      alg[(x, z)], cc, cc, cc, alg[(x, y)], alg[(y, z)],
                      dl, dr)
                check("cocomp-unit", (x, y, z), sp.comult_unit, f, cc,
                      unit[(x, z)], unit[(x, y)], unit[(y, z)], dl, dr)
    for x in X:
        check("counit-mult", (x,), sp.counit_mult, f, alg[(x, x)],
              counit[x], counit[x], counit[x], dims[(x, x)])
        check("counit-unit", (x,), sp.counit_unit, f, unit[(x, x)],
              counit[x])

    if c.antipode is not None:
        # S(x,y): C(y,x) → C(x,y), in column form
        s = inst.intern({(x, y): sp.columns(f, c.antipode[(x, y)],
                                            dims[(y, x)])
                         for x in X for y in X})
        for x in X:
            for y in X:
                cc = cocomp[(x, y, x)]   # C(x,x) → C(x,y)⊗C(y,x)
                check("dual-antipode-left", (x, y), sp.antipode_law, f, cc,
                      s[(x, y)], alg[(x, y)], unit[(x, y)], counit[x],
                      False, dims[(x, y)], False)
                check("dual-antipode-right", (x, y), sp.antipode_law, f, cc,
                      s[(y, x)], alg[(y, x)], unit[(y, x)], counit[x],
                      True, dims[(y, x)], False)
    return rep


def _reversed(t, rank: int, shape: tuple, zero):
    """``t`` with its index order reversed, for example t[i][j][k] at
    [k][j][i]: every tensor of a coordinate dual, either way round."""
    return reshaped(t, rank, shape, zero, lambda *idx: idx[::-1])


def dualize(a: HopfCatData) -> DualHopfCatData:
    """Coordinate-dual of a (semi-)Hopf category on the dual bases."""
    a.validate_shape()
    X, zero = a.objects, a.field.zero
    dims = {(x, y): a.dim(y, x) for x in X for y in X}
    # opposite convolution: (f_a f_b)(e_i) = <f_a, e_i(2)><f_b, e_i(1)>
    alg = {(x, y): _reversed(a.comult[(y, x)], 3, (dims[(x, y)],) * 3, zero)
           for x in X for y in X}
    unit = {(x, y): a.counit[(y, x)] for x in X for y in X}
    # A(z,y)⊗A(y,x) → A(z,x) read backwards: C(x,z) → C(x,y)⊗C(y,z)
    cocomp = {(x, y, z): _reversed(
        a.mult[(z, y, x)], 3, (dims[(x, z)], dims[(x, y)], dims[(y, z)]),
        zero) for x in X for y in X for z in X}
    counit = {x: a.unit[x] for x in X}
    antipode = None
    if a.antipode is not None:    # the transpose of S: A(y,x) → A(x,y)
        antipode = {(x, y): _reversed(a.antipode[(y, x)], 2,
                                      (dims[(x, y)], dims[(y, x)]), zero)
                    for x in X for y in X}
    return DualHopfCatData(a.field, X, dims, alg, unit, cocomp, counit,
                           antipode)


def undualize(c: DualHopfCatData) -> HopfCatData:
    """Inverse of ``dualize`` on the double-dual basis identification."""
    c.validate_shape()
    X, zero = c.objects, c.field.zero
    dims = {(x, y): c.dim(y, x) for x in X for y in X}
    mult = {(x, y, z): _reversed(
        c.cocomp[(z, y, x)], 3, (dims[(x, y)], dims[(y, z)], dims[(x, z)]),
        zero) for x in X for y in X for z in X}
    unit = {x: c.counit[x] for x in X}
    comult = {(x, y): _reversed(c.alg[(y, x)], 3, (dims[(x, y)],) * 3, zero)
              for x in X for y in X}
    counit = {(x, y): c.unit[(y, x)] for x in X for y in X}
    antipode = None
    if c.antipode is not None:    # the transpose of S: C(x,y) → C(y,x)
        antipode = {(x, y): _reversed(c.antipode[(y, x)], 2,
                                      (dims[(y, x)], dims[(x, y)]), zero)
                    for x in X for y in X}
    return HopfCatData(c.field, X, dims, mult, unit, comult, counit, antipode)
