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
through the shared laws of ``sparse``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import sparse as sp
from .core import HopfCatData
from .dual import DualHopfCatData, dualize, undualize
from .linalg import LinMap, swap_map
from .report import Report, check_map_equal
from .schema import LAYOUTS, check_shape


class BaseMismatchError(ValueError):
    """Module data does not fit its base structure."""


@dataclass
class ModuleData:
    base: HopfCatData
    side: str                       # "right" | "left"
    dims: dict[tuple[str, str], int]
    action: dict[tuple[str, str, str], list]

    layout = LAYOUTS["module"]
    validate_shape = check_shape

    def dim(self, x: str, y: str) -> int:
        return self.dims[(x, y)]

    def action_map(self, x: str, y: str, z: str) -> LinMap:
        f = self.base.field
        if self.side == "right":
            d1, d2, d3 = self.dim(x, y), self.base.dim(y, z), self.dim(x, z)
        else:
            d1, d2, d3 = self.base.dim(x, y), self.dim(y, z), self.dim(x, z)
        t = self.action[(x, y, z)]
        zero = f.zero
        out = [[zero] * (d1 * d2) for _ in range(d3)]
        for i in range(d1):
            for j in range(d2):
                for k in range(d3):
                    out[k][i * d2 + j] = t[i][j][k]
        return LinMap(f, d3, d1 * d2, out)


@dataclass
class ComoduleData:
    base: DualHopfCatData
    dims: dict[tuple[str, str], int]
    coaction: dict[tuple[str, str, str], list]

    layout = LAYOUTS["comodule"]
    validate_shape = check_shape

    def dim(self, x: str, y: str) -> int:
        return self.dims[(x, y)]


def verify_module(m: ModuleData) -> Report:
    """Associativity and unit laws of the action, on every basis element."""
    m.validate_shape()
    rep = Report()
    a = m.base
    X, f = a.objects, a.field
    act, mult = sp.tensors(f, m.action), sp.tensors(f, a.mult)
    unit = sp.vectors(f, a.unit)
    right = m.side == "right"
    for x in X:
        for y in X:
            for z in X:
                for u in X:
                    if right:    # (m·a)·b against m·(ab)
                        pair = sp.assoc(f, act[(x, y, z)], act[(x, z, u)],
                                        mult[(y, z, u)], act[(x, y, u)],
                                        a.dims[(z, u)], m.dims[(x, u)])
                    else:        # a·(b·m) against (ab)·m
                        pair = sp.assoc(f, mult[(x, y, z)], act[(x, z, u)],
                                        act[(y, z, u)], act[(x, y, u)],
                                        m.dims[(z, u)], m.dims[(x, u)])[::-1]
                    check_map_equal(rep, "module-assoc", (x, y, z, u), *pair)
    for x in X:
        for y in X:
            if right:
                pair = sp.unit_law(f, act[(x, y, y)], unit[y], m.dims[(x, y)],
                                   left=False)
            else:
                pair = sp.unit_law(f, act[(x, x, y)], unit[x], m.dims[(x, y)],
                                   left=True)
            check_map_equal(rep, "module-unit", (x, y), *pair)
    return rep


def verify_comodule(m: ComoduleData) -> Report:
    """Coassociativity and counit laws of the coaction."""
    m.validate_shape()
    rep = Report()
    c = m.base
    X, f = c.objects, c.field
    coact, cocomp = sp.tensors(f, m.coaction), sp.tensors(f, c.cocomp)
    counit = sp.vectors(f, c.counit)
    for x in X:
        for z in X:
            for u in X:
                for y in X:
                    check_map_equal(
                        rep, "comodule-coassoc", (x, u, y, z), *sp.coassoc(
                            f, coact[(x, y, z)], coact[(x, u, y)],
                            coact[(x, u, z)], cocomp[(u, y, z)],
                            (m.dims[(x, u)], c.dims[(u, y)], c.dims[(y, z)])))
    for x in X:
        for z in X:
            check_map_equal(rep, "comodule-counit", (x, z), *sp.counit_law(
                f, coact[(x, z, z)], counit[z], left=False))
    return rep


# -- stock modules ---------------------------------------------------------------

def regular_module(a: HopfCatData, side: str = "right") -> ModuleData:
    """The base acting on itself by composition."""
    return ModuleData(a, side, dict(a.dims),
                      {k: v for k, v in a.mult.items()})


def regular_comodule(c: DualHopfCatData) -> ComoduleData:
    """The dual base coacting on itself by cocomposition."""
    return ComoduleData(c, dict(c.dims), {k: v for k, v in c.cocomp.items()})


def unit_module(a: HopfCatData, side: str = "left") -> ModuleData:
    """All hom components one-dimensional, acted on through the counit."""
    one = a.field.one
    X = a.objects
    dims = {(x, y): 1 for x in X for y in X}
    action = {}
    for x in X:
        for y in X:
            for z in X:
                if side == "left":
                    d = a.dim(x, y)
                    action[(x, y, z)] = [[[a.counit[(x, y)][i]]]
                                         for i in range(d)]
                else:
                    d = a.dim(y, z)
                    action[(x, y, z)] = [[[a.counit[(y, z)][j]]
                                          for j in range(d)]]
    return ModuleData(a, side, dims, action)


# -- module <-> comodule ------------------------------------------------------------

def comodule_to_module(m: ComoduleData) -> ModuleData:
    """Right action through the coaction: m·a pairs a against the C-leg.

    The base of the result is the finite dual of the comodule's base.
    """
    c = m.base
    a = undualize(c)
    X = c.objects
    dims = dict(m.dims)
    action = {}
    for x in X:
        for z in X:
            for y in X:
                # psi(x,z,y): M(x,z) ⊗ A(z,y) → M(x,y); A(z,y) = C(y,z)*
                r = m.coaction[(x, y, z)]
                d1, d2, d3 = m.dim(x, z), a.dim(z, y), m.dim(x, y)
                action[(x, z, y)] = [[[r[i][k][j] for k in range(d3)]
                                      for j in range(d2)] for i in range(d1)]
    return ModuleData(a, "right", dims, action)


def module_to_comodule(m: ModuleData) -> ComoduleData:
    """Coaction through the action against the coordinate dual basis."""
    if m.side != "right":
        raise BaseMismatchError("the comodule translation acts on right modules")
    a = m.base
    c = dualize(a)
    X = a.objects
    dims = dict(m.dims)
    coaction = {}
    for x in X:
        for y in X:
            for z in X:
                # rho(x,y,z): M(x,z) → M(x,y) ⊗ C(y,z); C(y,z) = A(z,y)*
                p = m.action[(x, z, y)]
                d1, d2, d3 = m.dim(x, z), m.dim(x, y), c.dim(y, z)
                coaction[(x, y, z)] = [[[p[i][k][j] for k in range(d3)]
                                        for j in range(d2)]
                                       for i in range(d1)]
    return ComoduleData(c, dims, coaction)


def tensor_modules(m: ModuleData, n: ModuleData) -> ModuleData:
    """Componentwise tensor with the diagonal action through comultiplication."""
    if m.side != n.side:
        raise BaseMismatchError("tensor factors must have the same side")
    if m.base != n.base:
        raise BaseMismatchError("tensor factors must share their base")
    a = m.base
    f = a.field
    X = a.objects
    dims = {(x, y): m.dim(x, y) * n.dim(x, y) for x in X for y in X}
    action = {}
    for x in X:
        for y in X:
            for z in X:
                if m.side == "left":
                    da = a.dim(x, y)
                    dm, dn = m.dim(y, z), n.dim(y, z)
                    # A ⊗ (M⊗N) → A⊗A⊗M⊗N → A⊗M⊗A⊗N → M'⊗N'
                    big = (m.action_map(x, y, z).kron(n.action_map(x, y, z))
                           @ LinMap.identity(f, da)
                           .kron(swap_map(f, da, dm))
                           .kron(LinMap.identity(f, dn))
                           @ a.comult_map(x, y)
                           .kron(LinMap.identity(f, dm * dn)))
                    d1, d2 = da, dm * dn
                else:
                    dm, dn = m.dim(x, y), n.dim(x, y)
                    da = a.dim(y, z)
                    # (M⊗N) ⊗ A → M⊗N⊗A⊗A → M⊗A⊗N⊗A → M'⊗N'
                    big = (m.action_map(x, y, z).kron(n.action_map(x, y, z))
                           @ LinMap.identity(f, dm)
                           .kron(swap_map(f, dn, da))
                           .kron(LinMap.identity(f, da))
                           @ LinMap.identity(f, dm * dn)
                           .kron(a.comult_map(y, z)))
                    d1, d2 = dm * dn, da
                d3 = dims[(x, z)]
                t = [[[big.entries[k][i * d2 + j] for k in range(d3)]
                      for j in range(d2)] for i in range(d1)]
                action[(x, y, z)] = t
    return ModuleData(a, m.side, dims, action)
