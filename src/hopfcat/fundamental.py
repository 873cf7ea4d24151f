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
shared laws of ``sparse``.  The canonical maps and the canonical and dual
Hopf modules are contracted out of the nonzero structure constants; ranks and
antipode recovery row-reduce those raw rows directly, coinvariants are the
kernel of rows read off the coaction, and the freeness equivalence is sparse
columns.  A ``LinMap`` is only the row container of a kernel, inverse or
rank, but for recovery's last step S = (1⊗ε)∘X.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import sparse as sp
from .core import (HopfCatData, MissingAntipodeError, _check_antipode_laws,
                   _require, verify_structure)
from .linalg import LinMap, NotInvertible, _rref, invert, rank, rank_kernel
from .modules import ModuleData, diagonal_action, verify_module
from .report import (InternalInvariantError, Instances, PreconditionError,
                     Report, check_condition, check_map_equal)
from .schema import LAYOUTS, check_shape, place, reshaped, tensor, zeros


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
    inst = Instances(rep, a.field)
    X, view, check = a.objects, inst.view, inst.check
    P, R, M, C = (view(t, sp.tensor3) for t in (
        m.action, m.coaction, a.mult, a.comult))
    E = view(a.counit, sp.vector)
    D, B = view(m.dims), view(a.dims)
    for x in X:
        Rx, Cx, Ex, Dx, Bx = R[x], C[x], E[x], D[x], B[x]
        for y in X:
            rho, b = Rx[y], Bx[y]
            check("comodule-coassoc", (x, y), sp.coassoc, rho, rho, rho,
                  Cx[y], Dx[y], b, b)
            check("comodule-counit", (x, y), sp.counit_law, rho, Ex[y], False)
    for x in X:
        Px, Rx, Mx, Dx, Bx = P[x], R[x], M[x], D[x], B[x]
        for y in X:
            Pxy, rxy, Mxy, Cy = Px[y], Rx[y], Mx[y], C[y]
            for z in X:
                psi = Pxy[z]
                check("hopf-compat", (x, y, z), sp.comult_mult, psi,
                      Rx[z], rxy, Cy[z], psi, Mxy[z], Dx[z], Bx[z])
    return rep


# -- stock Hopf modules -----------------------------------------------------------

def regular_hopf_module(a: HopfCatData) -> HopfModuleData:
    """The base with its own composition as action and comultiplication as
    coaction."""
    return HopfModuleData(a, dict(a.dims), dict(a.mult), dict(a.comult))


def _right_leg_coaction(a: HopfCatData, x: str, y: str, n: int) -> list:
    """The coaction of k^n⊗A(x,y) that comultiplies the right leg."""
    d = a.dim(x, y)
    r = zeros(a.field.zero, (n * d, n * d, d))
    for i in range(n):      # one copy of Δ per basis vector of k^n
        place(r, a.comult[(x, y)], 3,
              lambda b, j, k: (i * d + b, i * d + j, k))
    return r


def canonical_hopf_module(a: HopfCatData, z: str) -> HopfModuleData:
    """The Hopf module with component A(z,y)⊗A(x,y) at (x,y): the coaction
    comultiplies the right leg and the action hits both legs diagonally."""
    if z not in a.objects:
        raise ValueError(f"unknown object label '{z}'")
    f, X = a.field, a.objects
    view = Instances(Report(), f).view
    mult, comult = view(a.mult, sp.tensor3), view(a.comult, sp.tensor3)
    dims = {(x, y): a.dim(z, y) * a.dim(x, y) for x in X for y in X}
    coaction, action = {}, {}
    for x in X:
        for y in X:
            coaction[(x, y)] = _right_leg_coaction(a, x, y, a.dim(z, y))
            for u in X:     # (c⊗b)·h = Σ c·h_(1) ⊗ b·h_(2)
                action[(x, y, u)] = diagonal_action(
                    f, mult[z][y][u], mult[x][y][u], comult[y][u],
                    (a.dim(z, y), a.dim(x, y)), (a.dim(z, u), a.dim(x, u)))
    return HopfModuleData(a, dims, action, coaction)


def free_hopf_module(a: HopfCatData, ndims: dict[str, int]) -> HopfModuleData:
    """The free Hopf module on a family of plain spaces: component
    k^{n_x}⊗A(x,y), action on the right leg, coaction comultiplying it."""
    X, zero = a.objects, a.field.zero
    dims = {(x, y): ndims[x] * a.dim(x, y) for x in X for y in X}
    action, coaction = {}, {}
    for x in X:
        n = ndims[x]
        for y in X:
            dxy = a.dim(x, y)
            coaction[(x, y)] = _right_leg_coaction(a, x, y, n)
            for u in X:
                dyu, dxu = a.dim(y, u), a.dim(x, u)
                p = zeros(zero, (n * dxy, dyu, n * dxu))
                for i in range(n):      # one copy of the product per vector
                    place(p, a.mult[(x, y, u)], 3,
                          lambda b, j, k: (i * dxy + b, j, i * dxu + k))
                action[(x, y, u)] = p
    return HopfModuleData(a, dims, action, coaction)


# -- canonical maps ------------------------------------------------------------------

def _can_rows(a: HopfCatData, z: str, x: str, y: str,
              closed_inverse: bool = False) -> list[list]:
    """Raw rows (``Field.raw``) of the canonical map at (z,x,y),
    a⊗b ↦ Σ a·b_(1) ⊗ b_(2) on A(z,x)⊗A(x,y), or with ``closed_inverse`` of
    a⊗b ↦ Σ a·S(b_(1)) ⊗ b_(2) on A(z,y)⊗A(x,y), summed over the nonzero
    constants: d^5 products on dense data."""
    f = a.field
    zero, one = f.raw(f.zero), f.raw(f.one)
    dxy = a.dim(x, y)
    mid, out = (y, x) if closed_inverse else (x, y)
    m = sp.tensor3(f, a.mult[(z, mid, out)])
    s = (sp.columns(f, a.antipode[(x, y)], dxy) if closed_inverse
         else sp.identity(f, dxy))
    delta = sp.tensor3(f, a.comult[(x, y)])
    rows = [[zero] * (len(m) * dxy) for _ in range(a.dim(z, out) * dxy)]
    for i in range(len(m)):
        left = [sp.product(m, {i: one}, col) for col in s]   # m(e_i, s e_j)
        for b, fibres in enumerate(delta):
            for j, fibre in fibres.items():
                for w, u in left[j].items():
                    for k, v in fibre.items():
                        rows[w * dxy + k][i * dxy + b] += u * v
    return rows


def _lifted(f, rows: list[list], cols: int) -> LinMap:
    lift = f.lift
    return LinMap(f, len(rows), cols, [[lift(v) for v in r] for r in rows])


def build_can(a: HopfCatData, z: str, x: str, y: str) -> LinMap:
    """A(z,x)⊗A(x,y) → A(z,y)⊗A(x,y),  a⊗b ↦ a·b_(1) ⊗ b_(2)."""
    for lbl in (z, x, y):
        if lbl not in a.objects:
            raise ValueError(f"unknown object label '{lbl}'")
    return _lifted(a.field, _can_rows(a, z, x, y), a.dim(z, x) * a.dim(x, y))


def can_closed_inverse(a: HopfCatData, z: str, x: str, y: str) -> LinMap:
    """A(z,y)⊗A(x,y) → A(z,x)⊗A(x,y),  a⊗b ↦ a·S(b_(1)) ⊗ b_(2)."""
    if a.antipode is None:
        raise MissingAntipodeError("data carries no antipode")
    return _lifted(a.field, _can_rows(a, z, x, y, closed_inverse=True),
                   a.dim(z, y) * a.dim(x, y))


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
                rows = _can_rows(a, z, x, y)
                out[(z, x, y)] = (len(_rref(a.field, rows)[1]), len(rows))
    return out


def recover_antipode(a: HopfCatData):
    """Reconstruct the antipode from inverses of the probe canonical maps.

    Succeeds exactly when the maps at (x,x,y) and (y,x,y) are invertible for
    all pairs; the result passes the full Hopf level (the input's semi-Hopf
    laws, then the antipode laws) before being returned.  On a singular
    probe map, returns a RecoveryFailure instead.  The map at (y,x,y) is
    row-reduced beside η_y⊗1, giving X = can⁻¹∘(η_y⊗1) and S = (1⊗ε)∘X.
    """
    rep = verify_structure(a, "semihopf")
    if not rep.overall:
        raise PreconditionError(
            "antipode recovery needs level 'semihopf': " + rep.summary())
    work = a.strip_antipode()
    f = a.field
    zero = f.raw(f.zero)
    antipode = {}
    for x in a.objects:
        for y in a.objects:
            dxy, dyx = work.dim(x, y), work.dim(y, x)
            for z in dict.fromkeys((x, y)):     # (y,x,y) last
                rows = _can_rows(work, z, x, y)
                n = work.dim(z, x) * dxy
                if z == y:      # beside it η_y⊗1
                    for i, row in enumerate(rows):
                        row += [zero] * dxy
                        row[n + i % dxy] = f.raw(work.unit[y][i // dxy])
                rows, pivots = _rref(f, rows)
                r = sum(p < n for p in pivots)      # the rank of can
                if len(rows) != n or r < n:
                    return RecoveryFailure(z, x, y, r, len(rows))
            solved = _lifted(f, [row[n:] for row in rows], dxy)
            s = LinMap.identity(f, dyx).kron(work.counit_map(x, y)) @ solved
            antipode[(x, y)] = [list(r) for r in s.entries]
    out = work.with_antipode(antipode)
    _check_antipode_laws(out, rep)
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


def coinvariants(m: HopfModuleData) -> CoinvariantFamily:
    """Exact kernel of v ↦ rho(v) − v⊗1 on each diagonal component."""
    a = m.base
    f, zero = a.field, a.field.zero
    bases = {}
    for x in a.objects:
        d, da = m.dim(x, x), a.dim(x, x)
        r, u = m.coaction[(x, x)], a.unit[x]
        # row (j, k) of the map, column i: r[i][j][k] − δ_ij u[k]
        rows = [[r[i][j][k] - (u[k] if i == j else zero) for i in range(d)]
                for j in range(d) for k in range(da)]
        bases[x] = rank_kernel(LinMap(f, d * da, d, rows))[1]
    return CoinvariantFamily(bases)


def _coordinates(f, basis: list[dict], w: dict):
    """The coordinates of the sparse vector w in a reduced-echelon basis of
    sparse vectors, read off at the pivots; None when w is not in their
    span."""
    w = f.reduce(w)
    coords = {p: w[i] for p, v in enumerate(basis)
              if (i := next(iter(v))) in w}
    return coords if f.reduce(sp.apply(basis, coords)) == w else None


def _check_identity(rep: Report, axiom: str, objects: tuple, f, cols: list):
    """Record that the map with these sparse columns is the identity."""
    n = len(cols)
    check_map_equal(rep, axiom, objects, sp.SparseMap(f, n, cols),
                    sp.SparseMap(f, n, sp.identity(f, n)))


def check_equivalence(m: HopfModuleData) -> Report:
    """Both composites of the freeness adjunction are exact identities.

    Builds the coinvariant family N, the free module on it, the evaluation
    map N_x⊗A(x,y) → M(x,y) with its antipode-built inverse, and the pair of
    mutually inverse maps between N and the coinvariants of the free module,
    as sparse columns; the inverses read coordinates off echelon bases.
    """
    a = m.base
    if a.antipode is None:
        raise PreconditionError("the freeness equivalence needs an antipode")
    _require(a, "hopf", None, "the freeness equivalence needs level 'hopf'")
    f = a.field
    one = f.raw(f.one)
    rep = Report()
    fam = coinvariants(m)
    view = Instances(Report(), f).view
    act, coact = view(m.action, sp.tensor3), view(m.coaction, sp.tensor3)

    for x in a.objects:
        basis = [sp.vector(f, v) for v in fam.bases[x]]
        for y in a.objects:
            dxy, ident = a.dim(x, y), sp.identity(f, a.dim(x, y))
            rho = sp.flatten_pairs(coact[x][y], dxy)
            s = sp.columns(f, a.antipode[(x, y)], dxy)
            # n⊗h ↦ n·h, on the basis v_p⊗e_j of N_x⊗A(x,y)
            incl = sp.tensor_maps(basis, ident, dxy)
            psi = [col for i in range(m.dim(x, x))
                   for col in sp.left_factor(act[x][x][y], i, dxy)]
            counit_fg = [sp.apply(psi, v) for v in incl]
            # its inverse m ↦ Σ m_(0)·S(m_(1)) ⊗ m_(2): u⊗h ↦ u·S(h) on the
            # first leg of rho(m), then beside its second leg
            twisted = [sp.product(act[x][y][x], {u: one}, col)
                       for u in range(m.dim(x, y)) for col in s]
            twist = sp.tensor_maps([sp.apply(twisted, c) for c in rho], ident,
                                   dxy)
            alpha = [_coordinates(f, incl, sp.apply(twist, col))
                     for col in rho]
            if None in alpha:
                raise InternalInvariantError(
                    f"twisted coaction at ({x},{y}) does not land in the "
                    "coinvariant subspace")
            _check_identity(rep, "counit-after-inverse", (x, y), f,
                            [sp.apply(counit_fg, c) for c in alpha])
            _check_identity(rep, "inverse-after-counit", (x, y), f,
                            [sp.apply(alpha, c) for c in counit_fg])

    free = free_hopf_module(a, {x: fam.dim(x) for x in a.objects})
    gf = coinvariants(free)
    for x in a.objects:
        ident, dxx = sp.identity(f, fam.dim(x)), a.dim(x, x)
        basis = [sp.vector(f, v) for v in gf.bases[x]]
        # eta: n ↦ n⊗1_x, in the echelon basis of GF(N)_x, and beta = 1⊗ε
        units = sp.tensor_maps(ident, [sp.vector(f, a.unit[x])], dxx)
        eta = [_coordinates(f, basis, u) for u in units]
        if None in eta:
            raise InternalInvariantError(
                f"unit map at {x} does not land in the coinvariants "
                "of the free module")
        counit = sp.tensor_maps(
            ident, sp.columns(f, [a.counit[(x, x)]], dxx), 1)
        beta = [sp.apply(counit, v) for v in basis]
        _check_identity(rep, "retract-after-unit", (x,), f,
                        [sp.apply(beta, c) for c in eta])
        _check_identity(rep, "unit-after-retract", (x,), f,
                        [sp.apply(eta, c) for c in beta])
    return rep


# -- the dual Hopf module and integrals -------------------------------------------------

def dual_hopf_module(a: HopfCatData) -> HopfModuleData:
    """Coordinate duals of the hom objects as a Hopf module: the coaction is
    right multiplication by the dual basis in the opposite convolution
    algebra, the action hits evaluation arguments through the antipode."""
    if a.antipode is None:
        raise MissingAntipodeError("the dual Hopf module needs an antipode")
    a.validate_shape()
    f, X = a.field, a.objects
    view = Instances(Report(), f).view
    one, mult = f.raw(f.one), view(a.mult, sp.tensor3)
    S = view(a.antipode, sp.columns, a.dims)
    dims = dict(a.dims)
    coaction, action = {}, {}
    for x in X:
        for y in X:
            d = a.dim(x, y)
            coaction[(x, y)] = reshaped(a.comult[(x, y)], 3, (d, d, d),
                                        f.zero, lambda c, i, al: (al, c, i))
            for z in X:
                # p[α][j][b] = Σ_t S[t][j]·m[b][t][α], for S: A(y,z) → A(z,y)
                # and m: A(x,z)⊗A(z,y) → A(x,y)
                s, mt, d3 = S[y][z], mult[x][z][y], a.dim(x, z)
                action[(x, y, z)] = tensor(f.zero, (d, len(s), d3), (
                    ((al, j, b), f.lift(v)) for b in range(d3)
                    for j, col in enumerate(s)
                    for al, v in sp.product(mt, {b: one}, col).items()))
    return HopfModuleData(a, dims, action, coaction)


def integrals(a: HopfCatData, x: str, memo: dict | None = None) -> list[tuple]:
    """Reduced-echelon basis of the left integrals on the dual of A(x,x).

    Solves the defining linear system directly, cross-checks it against the
    coinvariants of the dual Hopf module at x, and verifies that pairing the
    integrals against every hom component A(x,y) fills the whole dual space.
    The dual Hopf module and its coinvariants do not depend on x: a caller
    that asks for several objects passes the same ``memo`` dict to each call,
    and they are built once, in the first.
    """
    if a.antipode is None:
        raise MissingAntipodeError("integrals need an antipode")
    if x not in a.objects:
        raise ValueError(f"unknown object label '{x}'")
    f = a.field
    raw = f.raw
    zero = raw(f.zero)
    d = a.dim(x, x)
    dc = a.comult[(x, x)]
    u = [raw(v) for v in a.unit[x]]
    # raw rows indexed by (dual basis element i, evaluation argument c)
    rows = []
    for i in range(d):
        for c in range(d):
            row = [raw(v) for v in dc[c][i]]
            row[c] -= u[i]
            rows.append(row)
    _, basis = rank_kernel(_lifted(f, rows, d))

    memo = {} if memo is None else memo
    if "dual" not in memo:
        dual_mod = dual_hopf_module(a)
        memo["dual"] = dual_mod, coinvariants(dual_mod)
    dual_mod, cofam = memo["dual"]
    if basis != cofam.bases[x]:
        raise InternalInvariantError(
            f"integral system at {x} disagrees with the coinvariants of the "
            "dual Hopf module")

    # pairing against every component is bijective
    for y in a.objects:
        dxy = a.dim(x, y)
        act = sp.tensor3(f, dual_mod.action[(x, x, y)])
        rows = [[zero] * (len(basis) * dxy) for _ in range(dxy)]
        for n, phi in enumerate(basis):     # row b, column (phi, j)
            for i, coef in enumerate(phi):
                if coef:
                    coef = raw(coef)
                    for j, fibre in act[i].items():
                        for b, v in fibre.items():
                            rows[b][n * dxy + j] += coef * v
        mat = _lifted(f, rows, len(basis) * dxy)
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
