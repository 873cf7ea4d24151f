"""Modules over a Hopf category, comodules over a dual one, and the exact
correspondence between them in the finite-dimensional setting.

Action tensors, with M the module family:

    right:  action[x,y,z][i][j][k]:  e_i · a_j = sum_k p[i][j][k] e_k,
            psi(x,y,z): M(x,y)⊗A(y,z) → M(x,z)
    left:   action[x,y,z][i][j][k]:  a_i · e_j = sum_k p[i][j][k] e_k,
            psi(x,y,z): A(x,y)⊗M(y,z) → M(x,z)

Coaction tensors over a dual category C:

    coaction[x,y,z][i][j][k]:  rho(e(x,z)_i) = sum p[i][j][k] e(x,y)_j ⊗ f(y,z)_k,
            rho(x,y,z): M(x,z) → M(x,y)⊗C(y,z)

The module↔comodule translation pairs against the coordinate dual bases, so
both round trips are literal identities of tensors.  ``verify_module`` and
``verify_comodule`` evaluate both sides of every law on every basis element
through the shared laws of ``sparse``, which also give the diagonal action
of a tensor product (``diagonal_action``).
"""

from __future__ import annotations

from . import sparse as sp
from .core import HopfCatData
from .dual import DualHopfCatData, dualize, undualize
from .report import Instances, Report
from .schema import LAYOUTS, check_shape, reshaped, tensor
from .value import Value


class BaseMismatchError(ValueError):
    """Module data does not fit its base structure."""


class ModuleData(Value):
    _fields = ("base", "side", "dims", "action")

    def __init__(self, base: HopfCatData, side: str,   # "right" | "left"
                 dims: dict[tuple[str, str], int],
                 action: dict[tuple[str, str, str], list]):
        self.base = base
        self.side = side
        self.dims = dims
        self.action = action

    layout = LAYOUTS["module"]
    validate_shape = check_shape

    def dim(self, x: str, y: str) -> int:
        return self.dims[(x, y)]


class ComoduleData(Value):
    _fields = ("base", "dims", "coaction")

    def __init__(self, base: DualHopfCatData,
                 dims: dict[tuple[str, str], int],
                 coaction: dict[tuple[str, str, str], list]):
        self.base = base
        self.dims = dims
        self.coaction = coaction

    layout = LAYOUTS["comodule"]
    validate_shape = check_shape

    def dim(self, x: str, y: str) -> int:
        return self.dims[(x, y)]


def verify_module(m: ModuleData) -> Report:
    """Associativity and unit laws of the action, on every basis element."""
    m.validate_shape()
    rep = Report()
    a = m.base
    inst = Instances(rep, a.field)
    X, view, check = a.objects, inst.view, inst.check
    P, M = view(m.action, sp.tensor3), view(a.mult, sp.tensor3)
    unit = view(a.unit, sp.vector)
    D, B = view(m.dims), view(a.dims)
    if m.side == "right":       # (m·a)·b against m·(ab)
        for x in X:
            Px, Dx = P[x], D[x]
            for y in X:
                Pxy, My = Px[y], M[y]
                for z in X:
                    p, Pxz, Myz, Bz = Pxy[z], Px[z], My[z], B[z]
                    for u in X:
                        check("module-assoc", (x, y, z, u), sp.assoc, p,
                              Pxz[u], Myz[u], Pxy[u], Bz[u], Dx[u])
        for x in X:
            Px, Dx = P[x], D[x]
            for y in X:
                check("module-unit", (x, y), sp.unit_law, Px[y][y],
                      unit[y], Dx[y], False)
    else:                       # a·(b·m) against (ab)·m
        for x in X:
            Mx, Px, Dx = M[x], P[x], D[x]
            for y in X:
                Mxy, Pxy, Py = Mx[y], Px[y], P[y]
                for z in X:
                    mxyz, Pxz, Pyz, Dz = Mxy[z], Px[z], Py[z], D[z]
                    for u in X:
                        check("module-assoc", (x, y, z, u), _assoc_reversed,
                              mxyz, Pxz[u], Pyz[u], Pxy[u], Dz[u], Dx[u])
        for x in X:
            Pxx, Dx, ux = P[x][x], D[x], unit[x]
            for y in X:
                check("module-unit", (x, y), sp.unit_law, Pxx[y], ux,
                      Dx[y], True)
    return rep


def _assoc_reversed(*args):
    """``sparse.assoc`` with its sides swapped."""
    return sp.assoc(*args)[::-1]


def verify_comodule(m: ComoduleData) -> Report:
    """Coassociativity and counit laws of the coaction."""
    m.validate_shape()
    rep = Report()
    c = m.base
    inst = Instances(rep, c.field)
    X, view, check = c.objects, inst.view, inst.check
    R, T = view(m.coaction, sp.tensor3), view(c.cocomp, sp.tensor3)
    counit = view(c.counit, sp.vector)
    D, B = view(m.dims), view(c.dims)
    for x in X:
        Rx, Dx = R[x], D[x]
        for z in X:
            for u in X:
                Rxu, Tu, Bu, dxu = Rx[u], T[u], B[u], Dx[u]
                rxuz = Rxu[z]
                for y in X:
                    check("comodule-coassoc", (x, u, y, z), sp.coassoc,
                          Rx[y][z], Rxu[y], rxuz, Tu[y][z], dxu, Bu[y],
                          B[y][z])
    for x in X:
        Rx = R[x]
        for z in X:
            check("comodule-counit", (x, z), sp.counit_law, Rx[z][z],
                  counit[z], False)
    return rep


# -- stock modules ---------------------------------------------------------------

def regular_module(a: HopfCatData, side: str = "right") -> ModuleData:
    """The base acting on itself by composition."""
    return ModuleData(a, side, dict(a.dims), dict(a.mult))


def regular_comodule(c: DualHopfCatData) -> ComoduleData:
    """The dual base coacting on itself by cocomposition."""
    return ComoduleData(c, dict(c.dims), dict(c.cocomp))


def unit_module(a: HopfCatData, side: str = "left") -> ModuleData:
    """All hom components one-dimensional, acted on through the counit."""
    X, f = a.objects, a.field
    eps = Instances(Report(), f).view(a.counit, sp.vector)

    def act(x, y, z):   # h·1 = ε(h)·1 on the left, 1·h = ε(h)·1 on the right
        if side == "left":
            return tensor(f.zero, (a.dim(x, y), 1, 1), (
                ((i, 0, 0), f.lift(e)) for i, e in eps[x][y].items()))
        return tensor(f.zero, (1, a.dim(y, z), 1), (
            ((0, i, 0), f.lift(e)) for i, e in eps[y][z].items()))
    action = {(x, y, z): act(x, y, z) for x in X for y in X for z in X}
    return ModuleData(a, side, {(x, y): 1 for x in X for y in X}, action)


# -- module <-> comodule ------------------------------------------------------------

def _swap_legs(t, shape, zero):
    """The 3-tensor t[i][j][k] as [i][k][j]: ``shape`` is the result's."""
    return reshaped(t, 3, shape, zero, lambda i, j, k: (i, k, j))


def comodule_to_module(m: ComoduleData) -> ModuleData:
    """Right action through the coaction: m·a pairs a against the C-leg.

    The base of the result is the finite dual of the comodule's base.
    """
    a = undualize(m.base)
    X, zero = a.objects, a.field.zero
    # psi(x,z,y): M(x,z) ⊗ A(z,y) → M(x,y); A(z,y) = C(y,z)*
    action = {(x, z, y): _swap_legs(m.coaction[(x, y, z)], (
        m.dim(x, z), a.dim(z, y), m.dim(x, y)), zero)
        for x in X for z in X for y in X}
    return ModuleData(a, "right", dict(m.dims), action)


def module_to_comodule(m: ModuleData) -> ComoduleData:
    """Coaction through the action against the coordinate dual basis."""
    if m.side != "right":
        raise BaseMismatchError("the comodule translation acts on right modules")
    c = dualize(m.base)
    X, zero = c.objects, c.field.zero
    # rho(x,y,z): M(x,z) → M(x,y) ⊗ C(y,z); C(y,z) = A(z,y)*
    coaction = {(x, y, z): _swap_legs(m.action[(x, z, y)], (
        m.dim(x, z), m.dim(x, y), c.dim(y, z)), zero)
        for x in X for y in X for z in X}
    return ComoduleData(c, dict(m.dims), coaction)


def diagonal_action(f, act1, act2, delta, factors, dims,
                    left: bool = False) -> list:
    """The tensor of (u⊗v)·h = Σ act1(u, h1) ⊗ act2(v, h2), or with ``left``
    of h·(u⊗v) = Σ act1(h1, u) ⊗ act2(h2, v), over Δh = Σ h1⊗h2, for sparse
    act1, act2 and Δ, factors = (dim U, dim V) and dims those of the targets
    of act1 and act2: the right side of ``sparse.comult_mult`` with U⊗V
    split as itself."""
    du, dv = factors
    one = f.raw(f.one)
    split = [{i // dv: {i % dv: one}} for i in range(du * dv)]
    legs = (delta, split) if left else (split, delta)
    n, width = len(legs[0]), len(legs[1])
    _, rhs = sp.comult_mult(f, [{}] * n, [], *legs, act1, act2, *dims)
    return tensor(f.zero, (n, width, rhs.rows), (
        ((c // width, c % width, k), f.lift(v))
        for c, col in enumerate(rhs.columns) for k, v in col.items()))


def tensor_modules(m: ModuleData, n: ModuleData) -> ModuleData:
    """Componentwise tensor with the diagonal action through comultiplication."""
    if m.side != n.side:
        raise BaseMismatchError("tensor factors must have the same side")
    if m.base != n.base:
        raise BaseMismatchError("tensor factors must share their base")
    a = m.base
    f, X = a.field, a.objects
    left = m.side == "left"
    view = Instances(Report(), f).view
    act_m, act_n = view(m.action, sp.tensor3), view(n.action, sp.tensor3)
    comult = view(a.comult, sp.tensor3)
    dims = {(x, y): m.dim(x, y) * n.dim(x, y) for x in X for y in X}
    action = {}
    for x in X:
        for y in X:
            for z in X:
                u, v = (y, z) if left else (x, y)   # M(u,v)⊗N(u,v) is acted on
                action[(x, y, z)] = diagonal_action(
                    f, act_m[x][y][z], act_n[x][y][z],
                    comult[x][y] if left else comult[y][z],
                    (m.dim(u, v), n.dim(u, v)), (m.dim(x, z), n.dim(x, z)),
                    left)
    return ModuleData(a, m.side, dims, action)
