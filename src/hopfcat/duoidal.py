"""Two tensor products on object families over X×X, their interchange, and
bimonoids.

The componentwise ("black") product tensors matching components; the
convolution-style ("white") product sums over a middle object:

    (M ⊙ N)(x,z) = ⊕_y M(x,y)⊗N(y,z),      blocks ordered by y;
    (M • N)(x,y) = M(x,y)⊗N(x,y).

Their units are I (one-dimensional diagonal, zero elsewhere) and J
(one-dimensional everywhere).  The interchange

    zeta: (M•N)⊙(P•Q) → (M⊙P)•(N⊙Q)

swaps the two middle tensor legs inside each diagonal block and includes it
into the double direct sum (u,v ordered with u slowest).

A bimonoid carries a monoid structure for ⊙ and a comonoid structure for •,
linked by four compatibility identities, which ``verify_bimonoid`` checks
block by block over the middle object; those data are in exact bijection
with semi-Hopf category structures on the same components, realized here by
``bimonoid_from_category`` / ``category_from_bimonoid``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import sparse as sp
from .core import HopfCatData, MalformedDataError
from .linalg import LinMap
from .report import Instances, Report
from .scalars import Field
from .schema import LAYOUTS, check_shape


@dataclass
class MkXObject:
    objects: tuple[str, ...]
    dims: dict[tuple[str, str], int]

    def dim(self, x: str, y: str) -> int:
        return self.dims[(x, y)]

def carrier_of(a: HopfCatData) -> MkXObject:
    return MkXObject(a.objects, dict(a.dims))


def unit_white(objects: tuple[str, ...]) -> MkXObject:
    return MkXObject(objects, {(x, y): 1 if x == y else 0
                               for x in objects for y in objects})


def unit_black(objects: tuple[str, ...]) -> MkXObject:
    return MkXObject(objects, {(x, y): 1 for x in objects for y in objects})


def white_tensor(m: MkXObject, n: MkXObject) -> tuple[MkXObject, dict]:
    """⊙ together with the block offset table offsets[(x,z)][y]."""
    if m.objects != n.objects:
        raise MalformedDataError("white tensor needs a shared object set")
    X = m.objects
    dims = {}
    offsets: dict = {}
    for x in X:
        for z in X:
            off = 0
            offsets[(x, z)] = {}
            for y in X:
                offsets[(x, z)][y] = off
                off += m.dim(x, y) * n.dim(y, z)
            dims[(x, z)] = off
    return MkXObject(X, dims), offsets


def black_tensor(m: MkXObject, n: MkXObject) -> MkXObject:
    if m.objects != n.objects:
        raise MalformedDataError("black tensor needs a shared object set")
    X = m.objects
    return MkXObject(X, {(x, y): m.dim(x, y) * n.dim(x, y)
                         for x in X for y in X})


def white_inclusion(field: Field, m: MkXObject, n: MkXObject,
                    x: str, y: str, z: str) -> LinMap:
    """M(x,y)⊗N(y,z) → (M⊙N)(x,z), the y-block inclusion."""
    prod, offsets = white_tensor(m, n)
    total = prod.dim(x, z)
    block = m.dim(x, y) * n.dim(y, z)
    off = offsets[(x, z)][y]
    zero, one = field.zero, field.one
    out = [[zero] * block for _ in range(total)]
    for i in range(block):
        out[off + i][i] = one
    return LinMap(field, total, block, out)


def zeta(field: Field, m: MkXObject, n: MkXObject, p: MkXObject,
         q: MkXObject) -> dict[tuple[str, str], LinMap]:
    """The interchange (M•N)⊙(P•Q) → (M⊙P)•(N⊙Q), one block map per pair."""
    for other in (n, p, q):
        if other.objects != m.objects:
            raise MalformedDataError("interchange needs a shared object set")
    X = m.objects
    mn = black_tensor(m, n)
    pq = black_tensor(p, q)
    dom, dom_off = white_tensor(mn, pq)
    mp, mp_off = white_tensor(m, p)
    nq, nq_off = white_tensor(n, q)
    out = {}
    for x in X:
        for y in X:
            rows = mp.dim(x, y) * nq.dim(x, y)
            cols = dom.dim(x, y)
            zero, one = field.zero, field.one
            mat = [[zero] * cols for _ in range(rows)]
            for z in X:
                dm, dn = m.dim(x, z), n.dim(x, z)
                dp, dq = p.dim(z, y), q.dim(z, y)
                block_off = dom_off[(x, y)][z]
                for im in range(dm):
                    for jn in range(dn):
                        for kp in range(dp):
                            for lq in range(dq):
                                col = block_off + ((im * dn + jn) * dp + kp) \
                                    * dq + lq
                                r1 = mp_off[(x, y)][z] + im * dp + kp
                                r2 = nq_off[(x, y)][z] + jn * dq + lq
                                row = r1 * nq.dim(x, y) + r2
                                mat[row][col] = one
            out[(x, y)] = LinMap(field, rows, cols, mat)
    return out


@dataclass
class BimonoidData:
    field: Field
    carrier: MkXObject
    mu: dict[tuple[str, str, str], list]   # component (x,u,y): A(x,u)⊗A(u,y)→A(x,y)
    eta: dict[str, list]                    # vector in A(x,x)
    delta: dict[tuple[str, str], list]      # D[i][j][k]
    eps: dict[tuple[str, str], list]

    layout = LAYOUTS["bimonoid"]
    validate_shape = check_shape

    def dim(self, x: str, y: str) -> int:
        return self.carrier.dim(x, y)


def verify_bimonoid(b: BimonoidData) -> Report:
    """Monoid laws for ⊙, comonoid laws for •, and the four compatibility
    identities, on every basis element.  The product on (A⊙A)(x,y) is the
    direct sum over the middle object u, so each compatibility identity at
    (x,y) is the matching Hopf-category law at (x,u,y) with its columns
    side by side over u in object order; the interchange is never built."""
    b.validate_shape()
    rep = Report()
    inst = Instances(rep, b.field)
    X, view, check = b.carrier.objects, inst.view, inst.check
    M, C = view(b.mu, sp.tensor3), view(b.delta, sp.tensor3)
    eta, E = view(b.eta, sp.vector), view(b.eps, sp.vector)
    D = view(b.carrier.dims)

    for x in X:
        Mx, Dx = M[x], D[x]
        for u in X:
            Mxu, Mu = Mx[u], M[u]
            for v in X:
                m, Mxv, Muv, Dv = Mxu[v], Mx[v], Mu[v], D[v]
                for y in X:
                    check("monoid-assoc", (x, u, v, y), sp.assoc, m,
                          Mxv[y], Muv[y], Mxu[y], Dv[y], Dx[y])
    for x in X:
        Mx, Mxx, Dx, ex = M[x], M[x][x], D[x], eta[x]
        for y in X:
            check("monoid-unit-left", (x, y), sp.unit_law, Mxx[y], ex,
                  Dx[y], True)
            check("monoid-unit-right", (x, y), sp.unit_law, Mx[y][y],
                  eta[y], Dx[y], False)

    for x in X:
        Cx, Ex, Dx = C[x], E[x], D[x]
        for y in X:
            d, dl, eps = Dx[y], Cx[y], Ex[y]
            check("comonoid-coassoc", (x, y), sp.coassoc, dl, dl, dl, dl,
                  d, d, d)
            check("comonoid-counit-left", (x, y), sp.counit_law, dl, eps, True)
            check("comonoid-counit-right", (x, y), sp.counit_law, dl, eps,
                  False)

    for x in X:
        Mx, Cx, Ex, Dx = M[x], C[x], E[x], D[x]
        for y in X:
            check("interchange-mult-comult", (x, y), _mult_comult, Dx[y],
                  Cx[y], *(t for u in X for t in (
                      Mx[u][y], Cx[u], C[u][y])))
            check("interchange-counit-mult", (x, y), _counit_mult,
                  Ex[y], *(t for u in X for t in (
                      Mx[u][y], Ex[u], E[u][y], D[u][y])))
    for x in X:
        d, ex = D[x][x], eta[x]
        check("interchange-comult-unit", (x,), sp.comult_unit, C[x][x],
              ex, ex, ex, d, d)
        check("interchange-counit-unit", (x,), sp.counit_unit, ex, E[x][x])
    return rep


# The two compatibility laws on (A⊙A)(x,y), the Hopf-category laws at
# (x,u,y) side by side over the middle object u; ``blocks`` holds each u's
# tensors in turn.

def _mult_comult(f, d: int, delta, *blocks):
    return sp.side_by_side(f, d * d, (
        sp.comult_mult(f, m, delta, dl, dr, m, m, d, d)
        for m, dl, dr in zip(blocks[::3], blocks[1::3], blocks[2::3])))


def _counit_mult(f, eps: dict, *blocks):
    return sp.side_by_side(f, 1, (
        sp.counit_mult(f, m, eps, el, er, dr)
        for m, el, er, dr in zip(blocks[::4], blocks[1::4], blocks[2::4],
                                 blocks[3::4])))


def bimonoid_from_category(a: HopfCatData) -> BimonoidData:
    """Reshape composition/unit/comultiplication/counit as bimonoid data."""
    a.validate_shape()
    return BimonoidData(
        a.field, carrier_of(a),
        dict(a.mult), dict(a.unit), dict(a.comult), dict(a.counit))


def category_from_bimonoid(b: BimonoidData) -> HopfCatData:
    """Inverse reshaping; exact on structure constants in both directions."""
    b.validate_shape()
    return HopfCatData(
        b.field, b.carrier.objects, dict(b.carrier.dims),
        dict(b.mu), dict(b.eta), dict(b.delta), dict(b.eps), None)
