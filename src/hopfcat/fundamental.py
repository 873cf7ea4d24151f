"""Hopf modules, Galois-type canonical maps, antipode recovery, coinvariants,
the freeness equivalence, the dual Hopf module, and integrals.

A Hopf module over a semi-Hopf category A carries a right action
psi(x,y,z): M(x,y)⊗A(y,z) → M(x,z) and a coaction
rho(x,y): M(x,y) → M(x,y)⊗A(x,y) compatible in the usual entwined sense.

The canonical map at (z,x,y) sends a⊗b to a·b_(1) ⊗ b_(2); its invertibility
at the probe triples (x,x,y) and (y,x,y) for all pairs is exactly what antipode
recovery needs, and with an antipode present the closed-form inverse
a⊗b ↦ a·S(b_(1)) ⊗ b_(2) must agree with the exact matrix inverse.

``verify_hopf_module`` checks its laws on every basis element through the
shared laws of ``sparse``.  The canonical maps, antipode recovery,
coinvariants, the freeness equivalence and integrals are dense ``LinMap``
algebra, since they need ranks, kernels, inverses and solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import sparse as sp
from .core import (HopfCatData, MissingAntipodeError, _require,
                   verify_structure)
from .linalg import (LinMap, NotInvertible, invert, rank, rank_kernel, solve,
                     swap_map)
from .modules import ModuleData, verify_module
from .report import (InternalInvariantError, PreconditionError, Report,
                     check_condition, check_map_equal)
from .schema import LAYOUTS, check_shape


@dataclass
class HopfModuleData:
    base: HopfCatData
    dims: dict[tuple[str, str], int]
    action: dict[tuple[str, str, str], list]   # p[i][j][k]
    coaction: dict[tuple[str, str], list]      # r[i][j][k]

    layout = LAYOUTS["hopf-module"]
    validate_shape = check_shape

    def dim(self, x: str, y: str) -> int:
        return self.dims[(x, y)]

    def identity_map(self, x: str, y: str) -> LinMap:
        return LinMap.identity(self.base.field, self.dim(x, y))

    def action_map(self, x: str, y: str, z: str) -> LinMap:
        f = self.base.field
        d1, d2, d3 = self.dim(x, y), self.base.dim(y, z), self.dim(x, z)
        t = self.action[(x, y, z)]
        zero = f.zero
        out = [[zero] * (d1 * d2) for _ in range(d3)]
        for i in range(d1):
            for j in range(d2):
                for k in range(d3):
                    out[k][i * d2 + j] = t[i][j][k]
        return LinMap(f, d3, d1 * d2, out)

    def coaction_map(self, x: str, y: str) -> LinMap:
        f = self.base.field
        d, da = self.dim(x, y), self.base.dim(x, y)
        t = self.coaction[(x, y)]
        zero = f.zero
        out = [[zero] * d for _ in range(d * da)]
        for i in range(d):
            for j in range(d):
                for k in range(da):
                    out[j * da + k][i] = t[i][j][k]
        return LinMap(f, d * da, d, out)


def verify_hopf_module(m: HopfModuleData,
                       base: Report | None = None) -> Report:
    """The right module laws of the action (``modules.verify_module``), the
    comodule laws of the coaction, and their entwining compatibility, on
    every basis element.

    The base must pass level 'semihopf'; ``base``, a passing report of
    ``verify_structure(m.base, ...)`` at that level or a higher one that the
    caller already has, spares verifying it again.
    """
    _require(m.base, "semihopf", base,
             "Hopf modules need a base valid at level 'semihopf'")
    m.validate_shape()
    rep = verify_module(ModuleData(m.base, "right", m.dims, m.action))
    a = m.base
    X, f = a.objects, a.field
    act, coact = sp.tensors(f, m.action), sp.tensors(f, m.coaction)
    mult, comult = sp.tensors(f, a.mult), sp.tensors(f, a.comult)
    counit = sp.vectors(f, a.counit)
    for x in X:
        for y in X:
            rho = coact[(x, y)]
            check_map_equal(rep, "comodule-coassoc", (x, y), *sp.coassoc(
                f, rho, rho, rho, comult[(x, y)],
                (m.dim(x, y), a.dim(x, y), a.dim(x, y))))
            check_map_equal(rep, "comodule-counit", (x, y), *sp.counit_law(
                f, rho, counit[(x, y)], left=False))
    for x in X:
        for y in X:
            for z in X:
                psi = act[(x, y, z)]
                check_map_equal(rep, "hopf-compat", (x, y, z), *sp.comult_mult(
                    f, psi, coact[(x, z)], coact[(x, y)], comult[(y, z)], psi,
                    mult[(x, y, z)], (m.dim(x, z), a.dim(x, z))))
    return rep


# -- stock Hopf modules -----------------------------------------------------------

def regular_hopf_module(a: HopfCatData) -> HopfModuleData:
    """The base with its own composition as action and comultiplication as
    coaction."""
    return HopfModuleData(a, dict(a.dims),
                          {k: v for k, v in a.mult.items()},
                          {k: v for k, v in a.comult.items()})


def canonical_hopf_module(a: HopfCatData, z: str) -> HopfModuleData:
    """The Hopf module with component A(z,y)⊗A(x,y) at (x,y): the coaction
    comultiplies the right leg and the action hits both legs diagonally."""
    if z not in a.objects:
        raise ValueError(f"unknown object label '{z}'")
    f = a.field
    X = a.objects
    dims = {(x, y): a.dim(z, y) * a.dim(x, y) for x in X for y in X}
    coaction = {}
    action = {}
    for x in X:
        for y in X:
            dzy, dxy = a.dim(z, y), a.dim(x, y)
            d = dzy * dxy
            t = a.comult[(x, y)]
            zero = f.zero
            r = [[[zero] * dxy for _ in range(d)] for _ in range(d)]
            for al in range(dzy):
                for b in range(dxy):
                    for j in range(dxy):
                        for k in range(dxy):
                            if t[b][j][k]:
                                r[al * dxy + b][al * dxy + j][k] = t[b][j][k]
            coaction[(x, y)] = r
            for u in X:
                dyu = a.dim(y, u)
                big = (a.mult_map(z, y, u).kron(a.mult_map(x, y, u))
                       @ LinMap.identity(f, dzy)
                       .kron(swap_map(f, dxy, dyu))
                       .kron(LinMap.identity(f, dyu))
                       @ LinMap.identity(f, d).kron(a.comult_map(y, u)))
                d3 = dims[(x, u)]
                action[(x, y, u)] = [
                    [[big.entries[k][i * dyu + j] for k in range(d3)]
                     for j in range(dyu)] for i in range(d)]
    return HopfModuleData(a, dims, action, coaction)


def free_hopf_module(a: HopfCatData, ndims: dict[str, int]) -> HopfModuleData:
    """The free Hopf module on a family of plain spaces: component
    k^{n_x}⊗A(x,y), action on the right leg, coaction comultiplying it."""
    f = a.field
    X = a.objects
    zero = f.zero
    dims = {(x, y): ndims[x] * a.dim(x, y) for x in X for y in X}
    action = {}
    coaction = {}
    for x in X:
        n = ndims[x]
        for y in X:
            dxy = a.dim(x, y)
            t = a.comult[(x, y)]
            r = [[[zero] * dxy for _ in range(n * dxy)]
                 for _ in range(n * dxy)]
            for i in range(n):
                for b in range(dxy):
                    for j in range(dxy):
                        for k in range(dxy):
                            if t[b][j][k]:
                                r[i * dxy + b][i * dxy + j][k] = t[b][j][k]
            coaction[(x, y)] = r
            for u in X:
                mt = a.mult[(x, y, u)]
                dyu, dxu = a.dim(y, u), a.dim(x, u)
                p = [[[zero] * (n * dxu) for _ in range(dyu)]
                     for _ in range(n * dxy)]
                for i in range(n):
                    for b in range(dxy):
                        for j in range(dyu):
                            for k in range(dxu):
                                if mt[b][j][k]:
                                    p[i * dxy + b][j][i * dxu + k] = mt[b][j][k]
                action[(x, y, u)] = p
    return HopfModuleData(a, dims, action, coaction)


# -- canonical maps ------------------------------------------------------------------

def build_can(a: HopfCatData, z: str, x: str, y: str) -> LinMap:
    """A(z,x)⊗A(x,y) → A(z,y)⊗A(x,y),  a⊗b ↦ a·b_(1) ⊗ b_(2)."""
    for lbl in (z, x, y):
        if lbl not in a.objects:
            raise ValueError(f"unknown object label '{lbl}'")
    f = a.field
    return (a.mult_map(z, x, y).kron(LinMap.identity(f, a.dim(x, y)))
            @ LinMap.identity(f, a.dim(z, x)).kron(a.comult_map(x, y)))


def can_closed_inverse(a: HopfCatData, z: str, x: str, y: str) -> LinMap:
    """A(z,y)⊗A(x,y) → A(z,x)⊗A(x,y),  a⊗b ↦ a·S(b_(1)) ⊗ b_(2)."""
    f = a.field
    s = a.antipode_map(x, y)
    dxy = a.dim(x, y)
    return (a.mult_map(z, y, x).kron(LinMap.identity(f, dxy))
            @ LinMap.identity(f, a.dim(z, y)).kron(
                s.kron(LinMap.identity(f, dxy)) @ a.comult_map(x, y)))


def can_inverse(a: HopfCatData, z: str, x: str, y: str):
    """Inverse of the canonical map: the antipode closed form when available
    (cross-checked against the exact matrix inverse), plain inversion
    otherwise.  Returns NotInvertible carrying the rank on failure."""
    cm = build_can(a, z, x, y)
    if a.antipode is not None:
        closed = can_closed_inverse(a, z, x, y)
        mat = invert(cm)
        if isinstance(mat, NotInvertible) or closed != mat:
            raise InternalInvariantError(
                f"closed-form inverse of the canonical map at ({z},{x},{y}) "
                "does not match the matrix inverse")
        return closed
    return invert(cm)


@dataclass(frozen=True)
class RecoveryFailure:
    """Antipode recovery blocked by a singular canonical map."""

    z: str
    x: str
    y: str
    rank: int
    dim: int


class AntipodeRecoveryError(ValueError):
    """Recovered maps exist but violate the antipode identities (possible only
    for inputs that are not actually semi-Hopf valid at every triple)."""

    def __init__(self, message, verify_report, can_ranks):
        super().__init__(message)
        self.verify_report = verify_report
        self.can_ranks = can_ranks


def can_rank_table(a: HopfCatData) -> dict[tuple[str, str, str], tuple[int, int]]:
    """(rank, full dim) of the canonical map for every object triple."""
    out = {}
    for z in a.objects:
        for x in a.objects:
            for y in a.objects:
                cm = build_can(a, z, x, y)
                out[(z, x, y)] = (rank(cm), cm.rows)
    return out


def recover_antipode(a: HopfCatData):
    """Reconstruct the antipode from inverses of the probe canonical maps.

    Succeeds exactly when the maps at (x,x,y) and (y,x,y) are invertible for
    all pairs; the result re-verifies at the full Hopf level before being
    returned.  On a singular probe map, returns a RecoveryFailure instead.
    """
    base = verify_structure(a, "semihopf")
    if not base.overall:
        raise PreconditionError(
            "antipode recovery needs level 'semihopf': " + base.summary())
    work = a.strip_antipode()
    f = a.field
    inverses = {}
    for x in a.objects:
        for y in a.objects:
            for z in (x, y):
                if (z, x, y) in inverses:
                    continue
                cm = build_can(work, z, x, y)
                inv = invert(cm)
                if isinstance(inv, NotInvertible):
                    return RecoveryFailure(z, x, y, inv.rank, cm.rows)
                inverses[(z, x, y)] = inv
    antipode = {}
    for x in a.objects:
        for y in a.objects:
            dxy, dyx = work.dim(x, y), work.dim(y, x)
            s = (LinMap.identity(f, dyx).kron(work.counit_map(x, y))
                 @ inverses[(y, x, y)]
                 @ work.unit_map(y).kron(LinMap.identity(f, dxy)))
            antipode[(x, y)] = [list(r) for r in s.entries]
    out = work.with_antipode(antipode)
    rep = verify_structure(out, "hopf")
    if not rep.overall:
        raise AntipodeRecoveryError(
            "recovered maps violate the antipode identities", rep,
            can_rank_table(work))
    return out


# -- coinvariants and the freeness equivalence ----------------------------------------

@dataclass
class CoinvariantFamily:
    """Per object, a reduced-echelon basis of the coinvariant subspace of the
    diagonal component."""

    bases: dict[str, list[tuple]]

    def dim(self, x: str) -> int:
        return len(self.bases[x])

    def inclusion(self, field, x: str, ambient_dim: int) -> LinMap:
        cols = self.bases[x]
        return LinMap(field, ambient_dim, len(cols),
                      [[cols[j][i] for j in range(len(cols))]
                       for i in range(ambient_dim)])


def coinvariants(m: HopfModuleData) -> CoinvariantFamily:
    """Exact kernel of v ↦ rho(v) − v⊗1 on each diagonal component."""
    a = m.base
    f = a.field
    bases = {}
    for x in a.objects:
        d = m.dim(x, x)
        rho = m.coaction_map(x, x)
        against = m.identity_map(x, x).kron(a.unit_map(x))
        _, basis = rank_kernel(rho - against)
        bases[x] = basis
    return CoinvariantFamily(bases)


def check_equivalence(m: HopfModuleData) -> Report:
    """Both composites of the freeness adjunction are exact identities.

    Builds the coinvariant family N, the free module on it, the evaluation
    map N_x⊗A(x,y) → M(x,y) with its antipode-built inverse, and the pair of
    mutually inverse maps between N and the coinvariants of the free module.
    """
    a = m.base
    if a.antipode is None:
        raise PreconditionError("the freeness equivalence needs an antipode")
    base_rep = verify_structure(a, "hopf")
    if not base_rep.overall:
        raise PreconditionError(
            "the freeness equivalence needs level 'hopf': "
            + base_rep.summary())
    f = a.field
    rep = Report()
    fam = coinvariants(m)

    for x in a.objects:
        incl = fam.inclusion(f, x, m.dim(x, x))
        for y in a.objects:
            dxy = a.dim(x, y)
            counit_fg = m.action_map(x, x, y) @ incl.kron(
                LinMap.identity(f, dxy))
            rho = m.coaction_map(x, y)
            raw = (m.action_map(x, y, x).kron(LinMap.identity(f, dxy))
                   @ m.identity_map(x, y).kron(
                       a.antipode_map(x, y).kron(LinMap.identity(f, dxy)))
                   @ rho.kron(LinMap.identity(f, dxy)) @ rho)
            alpha = solve(incl.kron(LinMap.identity(f, dxy)), raw)
            if alpha is None:
                raise InternalInvariantError(
                    f"twisted coaction at ({x},{y}) does not land in the "
                    "coinvariant subspace")
            check_map_equal(rep, "counit-after-inverse", (x, y),
                            counit_fg @ alpha, m.identity_map(x, y))
            check_map_equal(rep, "inverse-after-counit", (x, y),
                            alpha @ counit_fg,
                            LinMap.identity(f, fam.dim(x) * dxy))

    free = free_hopf_module(a, {x: fam.dim(x) for x in a.objects})
    gf = coinvariants(free)
    for x in a.objects:
        n = fam.dim(x)
        incl_gf = gf.inclusion(f, x, free.dim(x, x))
        # eta: n ↦ n⊗1_x, expressed in the echelon basis of GF(N)_x
        target = LinMap.identity(f, n).kron(a.unit_map(x))
        eta = solve(incl_gf, target)
        if eta is None:
            raise InternalInvariantError(
                f"unit map at {x} does not land in the coinvariants "
                "of the free module")
        beta = LinMap.identity(f, n).kron(a.counit_map(x, x)) @ incl_gf
        check_map_equal(rep, "retract-after-unit", (x,),
                        beta @ eta, LinMap.identity(f, n))
        check_map_equal(rep, "unit-after-retract", (x,),
                        eta @ beta, LinMap.identity(f, gf.dim(x)))
    return rep


# -- the dual Hopf module and integrals -------------------------------------------------

def dual_hopf_module(a: HopfCatData) -> HopfModuleData:
    """Coordinate duals of the hom objects as a Hopf module: the coaction is
    right multiplication by the dual basis in the opposite convolution
    algebra, the action hits evaluation arguments through the antipode."""
    if a.antipode is None:
        raise MissingAntipodeError("the dual Hopf module needs an antipode")
    a.validate_shape()
    f = a.field
    X = a.objects
    zero = f.zero
    dims = dict(a.dims)
    coaction = {}
    action = {}
    for x in X:
        for y in X:
            d = a.dim(x, y)
            dc = a.comult[(x, y)]
            coaction[(x, y)] = [[[dc[c][i][al] for i in range(d)]
                                 for c in range(d)] for al in range(d)]
            for z in X:
                s = a.antipode[(y, z)]         # A(y,z) → A(z,y)
                mt = a.mult[(x, z, y)]         # A(x,z)⊗A(z,y) → A(x,y)
                d1, d2, d3 = a.dim(x, y), a.dim(y, z), a.dim(x, z)
                dzy = a.dim(z, y)
                p = [[[zero] * d3 for _ in range(d2)] for _ in range(d1)]
                for al in range(d1):
                    for j in range(d2):
                        for b in range(d3):
                            acc = zero
                            for t in range(dzy):
                                if s[t][j] and mt[b][t][al]:
                                    acc = acc + s[t][j] * mt[b][t][al]
                            p[al][j][b] = acc
                action[(x, y, z)] = p
    return HopfModuleData(a, dims, action, coaction)


def integrals(a: HopfCatData, x: str) -> list[tuple]:
    """Reduced-echelon basis of the left integrals on the dual of A(x,x).

    Solves the defining linear system directly, cross-checks it against the
    coinvariants of the dual Hopf module at x, and verifies that pairing the
    integrals against every hom component A(x,y) fills the whole dual space.
    """
    if a.antipode is None:
        raise MissingAntipodeError("integrals need an antipode")
    if x not in a.objects:
        raise ValueError(f"unknown object label '{x}'")
    f = a.field
    d = a.dim(x, x)
    dc = a.comult[(x, x)]
    u = a.unit[x]
    zero = f.zero
    # rows indexed by (dual basis element i, evaluation argument c)
    rows = []
    for i in range(d):
        for c in range(d):
            row = [dc[c][i][al] - (u[i] if al == c else zero)
                   for al in range(d)]
            rows.append(row)
    _, basis = rank_kernel(LinMap(f, len(rows), d, rows))

    dual_mod = dual_hopf_module(a)
    cofam = coinvariants(dual_mod)
    if basis != cofam.bases[x]:
        raise InternalInvariantError(
            f"integral system at {x} disagrees with the coinvariants of the "
            "dual Hopf module")

    # pairing against every component is bijective
    for y in a.objects:
        dxy = a.dim(x, y)
        pairing_cols = []
        for phi in basis:
            for j in range(dxy):
                vec = dual_mod.action_map(x, x, y).apply(
                    [phi[i] if jj == j else zero
                     for i in range(d) for jj in range(dxy)])
                pairing_cols.append(vec)
        mat = LinMap(f, dxy, len(pairing_cols),
                     [[pairing_cols[c][r] for c in range(len(pairing_cols))]
                      for r in range(dxy)])
        if mat.rows != mat.cols or isinstance(invert(mat), NotInvertible):
            raise InternalInvariantError(
                f"integral pairing at ({x},{y}) is not bijective "
                f"(rank {rank(mat)} on {mat.rows}x{mat.cols})")
    return basis


def check_antipode_bijective(a: HopfCatData) -> Report:
    """Full rank of every antipode matrix."""
    if a.antipode is None:
        raise MissingAntipodeError("no antipode to check")
    rep = Report()
    for x in a.objects:
        for y in a.objects:
            s = a.antipode_map(x, y)
            r = rank(s)
            ok = s.rows == s.cols == r == a.dim(x, y) == a.dim(y, x)
            check_condition(rep, "antipode-bijective", (x, y), ok,
                            residual=f"rank {r} on {s.rows}x{s.cols}")
    return rep
