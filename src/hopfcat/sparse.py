"""Sparse vectors and column-form maps for per-basis axiom checks.

A sparse vector is a dict ``{flat index: scalar}`` that leaves out zeros, with
indices flattened as in ``linalg`` (leftmost tensor factor slowest).  A
``SparseMap`` stores a linear map as one such vector per domain basis element,
which is the form in which ``report.check_map_equal`` compares two maps:
an axiom holds when both sides agree on every basis element of the domain.
The law functions at the end give both sides of each axiom shape that the
verifiers check (associativity, unit law, coassociativity, counit law,
bialgebra compatibility and the laws of units, counits and antipodes) as
such a pair, for whichever tensors feed the law.

Scalars here are raw (``Field.raw``): over GF(p) plain ints, over Q ints
where the value is integral and ``Fraction`` values otherwise.  Nested-list
tensors (every kind's but the weak kind's, which ``weak`` groups itself)
are read into sparse raw form by ``vector``, ``tensor3`` and ``columns``,
through ``report.Instances.view``, once per distinct tensor object per
verifier call (see ``schema`` on sharing): a 3-tensor ``t[i][j][k]``
becomes a list over ``i`` of dicts ``{j: {k: c}}``, keeping only the
nonzero ``c`` (so ``t[i][j]`` is the vector that a bilinear map sends
``e_i, e_j`` to), and a matrix ``m[row][col]`` becomes its list of sparse
columns.

The arithmetic uses only ``+`` and ``*``, so over GF(p) it accumulates
unreduced ints that may leave [0, p).  ``report.check_map_equal`` compares
the two column lists of a law whole, with one ``==``, and only when they
differ takes the columns one by one through ``report.residual``, which
reduces (``Field.reduce``) their difference: sides that agree only mod p, or
up to an explicit zero, are still found equal.

The laws are pure: they never change their arguments (inputs and results
may share vectors, but nothing here writes into a vector it was given), and
both sides depend only on the values of the arguments.  ``report.Instances``
relies on this to evaluate each distinct instance of a law once per
verifier call and to hand its outcome to every repeat of it.  It binds the
field, the first argument of every law, and keys an instance by the law and
the other arguments, hashed by Python: an interned tensor by its identity,
which is sound because the memo keeps the first call's arguments alive, and
a dimension, flag or tuple by its value.
"""

from __future__ import annotations

from .scalars import Field


class SparseMap:
    """A linear map given by its sparse columns."""

    __slots__ = ("field", "rows", "columns")

    def __init__(self, field: Field, rows: int, columns: list[dict]):
        self.field = field
        self.rows = rows
        self.columns = columns

    @property
    def cols(self) -> int:
        return len(self.columns)

    def sparse(self) -> "SparseMap":
        return self


# -- reading dense tensors ------------------------------------------------------

def vector(field: Field, v) -> dict:
    raw = field.raw
    return {i: raw(c) for i, c in enumerate(v) if c}


def tensor3(field: Field, t) -> list[dict]:
    return [{j: vec for j, fibre in enumerate(slab)
             if (vec := vector(field, fibre))} for slab in t]


def columns(field: Field, m, cols: int) -> list[dict]:
    raw = field.raw
    out = [{} for _ in range(cols)]
    for r, row in enumerate(m):
        for c, v in enumerate(row):
            if v:
                out[c][r] = raw(v)
    return out


def flatten_pairs(t3: list[dict], d2: int) -> list[dict]:
    """Each ``{j: {k: c}}`` of a sparse 3-tensor as ``{j*d2 + k: c}``: a
    map into a tensor square, such as a comultiplication, as columns."""
    return [{j * d2 + k: c for j, fibre in rows.items()
             for k, c in fibre.items()} for rows in t3]


# -- arithmetic -----------------------------------------------------------------
#
# ``apply``, ``product``, the laws checked on every triple or quadruple of
# objects (``assoc``, ``comult_mult``, ``counit_mult``) and the dense
# kernels ``coassoc`` and ``antipode_law`` accumulate inline rather than
# through ``axpy``, ``add_tensor`` or ``pairing``.  A vector summed from one term
# is kept as built: given inputs without zeros, as every sparse form here is,
# a nonzero scalar times such a vector has none.  One summed from several
# terms may hold zeros from cancellation, which are dropped.

_EMPTY: dict = {}   # the shared default of ``.get`` lookups; never written


def nonzero(vec: dict) -> dict:
    return {k: v for k, v in vec.items() if v}


def add(acc: dict, k, v):
    """acc[k] += v."""
    acc[k] = acc[k] + v if k in acc else v


def axpy(acc: dict, s, vec: dict):
    """acc += s·vec."""
    for k, v in vec.items():
        acc[k] = acc[k] + s * v if k in acc else s * v


def add_tensor(acc: dict, u: dict, v: dict, d2: int):
    """acc += u⊗v, where v lives in a space of dimension d2."""
    for i, a in u.items():
        for j, b in v.items():
            k = i * d2 + j
            acc[k] = acc[k] + a * b if k in acc else a * b


def tensor_maps(left: list[dict], right: list[dict], d2: int) -> list[dict]:
    """The columns of g⊗h, for g and h given by their sparse columns and h
    into a space of dimension d2."""
    return [{i * d2 + j: a * b for i, a in u.items() for j, b in v.items()}
            for u in left for v in right]


def product(t3: list[dict], u: dict, v: dict) -> dict:
    """The bilinear map of the sparse 3-tensor t3 on (u, v).  A result of
    one nonzero constant is not filtered: it has no zeros if u, v and t3
    have none."""
    acc, terms = {}, 0
    for i, a in u.items():
        row = t3[i]
        for j, b in v.items():
            vec = row.get(j)
            if vec:
                terms += 1
                ab = a * b
                for k, c in vec.items():
                    acc[k] = acc[k] + ab * c if k in acc else ab * c
    return {k: c for k, c in acc.items() if c} if terms > 1 else acc


def left_factor(t3: list[dict], i: int, d2: int) -> list[dict]:
    """Columns of v ↦ t3(e_i, v), for v in a space of dimension d2."""
    return [t3[i].get(j, _EMPTY) for j in range(d2)]


def apply(cols: list[dict], u: dict) -> dict:
    """The map with these sparse columns applied to u.  For u of one
    coordinate the result is not filtered: it has no zeros if u and the
    columns have none."""
    acc = {}
    for i, c in u.items():
        for k, v in cols[i].items():
            acc[k] = acc[k] + c * v if k in acc else c * v
    return {k: v for k, v in acc.items() if v} if len(u) > 1 else acc


def pairing(u: dict, covec: dict) -> dict:
    """covec(u) as a vector of the one-dimensional space."""
    s = sum([c * covec[i] for i, c in u.items() if i in covec])
    return {0: s} if s else {}


# -- axiom laws -----------------------------------------------------------------
#
# Each law returns both sides of one axiom instance as a pair of SparseMaps,
# lhs first: column c of a side is that side evaluated on the c-th domain
# basis element, with domain and codomain flattened as in the matrix form of
# the axiom, so a column here is the column of the same index there.  Terms
# are summed only over nonzero constants.  A bilinear map U⊗V → W is a sparse
# 3-tensor over (U, V, W), a map D → L⊗R one over (D, L, R), a covector or
# vector a sparse vector, and a linear map its sparse columns.

def _pair(field: Field, rows: int, lhs: list, rhs: list):
    return SparseMap(field, rows, lhs), SparseMap(field, rows, rhs)


def identity(field: Field, d: int) -> list[dict]:
    """The columns of the identity of a space of dimension d."""
    one = field.raw(field.one)
    return [{i: one} for i in range(d)]


def side_by_side(field: Field, rows: int, pairs):
    """One pair whose columns are those of the given pairs in turn: a law
    on a direct sum of domains, block by block."""
    lhs, rhs = [], []
    for left, right in pairs:
        lhs += left.columns
        rhs += right.columns
    return _pair(field, rows, lhs, rhs)


def assoc(field: Field, first, then, inner, outer, d3: int, rows: int):
    """(u·v)·w against u·(v·w) on e_i⊗e_j⊗e_k, for bilinear maps
    first: U⊗V → P, then: P⊗W → T, inner: V⊗W → Q and outer: U⊗Q → T,
    with d3 = dim W and rows = dim T."""
    lhs, rhs = [], []
    for first_i, outer_i in zip(first, outer):
        for j, inner_j in enumerate(inner):
            uv = first_i.get(j, _EMPTY)
            for k in range(d3):
                acc, terms = {}, 0
                for p, c in uv.items():
                    vec = then[p].get(k)
                    if vec:
                        terms += 1
                        for t, v in vec.items():
                            acc[t] = acc[t] + c * v if t in acc else c * v
                lhs.append({t: v for t, v in acc.items() if v}
                           if terms > 1 else acc)
                acc, terms = {}, 0
                for q, c in inner_j.get(k, _EMPTY).items():
                    vec = outer_i.get(q)
                    if vec:
                        terms += 1
                        for t, v in vec.items():
                            acc[t] = acc[t] + c * v if t in acc else c * v
                rhs.append({t: v for t, v in acc.items() if v}
                           if terms > 1 else acc)
    return _pair(field, rows, lhs, rhs)


def unit_law(field: Field, m, unit: dict, d: int, left: bool):
    """m(1, e_i) (left) or m(e_i, 1) against e_i, for a bilinear m whose
    other factor and target have dimension d."""
    lhs = []
    for i in range(d):
        acc = {}
        for u, c in unit.items():
            vec = m[u].get(i) if left else m[i].get(u)
            if vec:
                axpy(acc, c, vec)
        lhs.append(nonzero(acc))
    return _pair(field, d, lhs, identity(field, d))


def coassoc(field: Field, first, left, second, right, du: int, dv: int,
            dw: int):
    """(left⊗1)∘first against (1⊗right)∘second, into U⊗V⊗W of dimensions
    du, dv and dw, for first: D → P⊗W, left: P → U⊗V, second: D → U⊗Q and
    right: Q → V⊗W."""
    left, right = flatten_pairs(left, dv), flatten_pairs(right, dw)
    dvw = dv * dw
    lhs, rhs = [], []
    for split1, split2 in zip(first, second):
        acc = {}
        for p, fibre in split1.items():
            uv = left[p]
            for w, c in fibre.items():
                for k, a in uv.items():
                    t = k * dw + w
                    acc[t] = acc[t] + a * c if t in acc else a * c
        lhs.append(nonzero(acc))
        acc = {}
        for u, fibre in split2.items():
            base = u * dvw
            for q, c in fibre.items():
                for k, b in right[q].items():
                    t = base + k
                    acc[t] = acc[t] + c * b if t in acc else c * b
        rhs.append(nonzero(acc))
    return _pair(field, du * dv * dw, lhs, rhs)


def counit_law(field: Field, delta, eps: dict, left: bool):
    """(ε⊗1)∘δ (left) or (1⊗ε)∘δ against the identity, for δ: D → L⊗R and
    ε the covector on the leg it removes."""
    lhs = []
    for fibres in delta:
        acc = {}
        for j, fibre in fibres.items():
            for k, c in fibre.items():
                if left:
                    if j in eps:
                        add(acc, k, eps[j] * c)
                elif k in eps:
                    add(acc, j, eps[k] * c)
        lhs.append(nonzero(acc))
    return _pair(field, len(delta), lhs, identity(field, len(delta)))


def comult_mult(field: Field, m, delta, delta_u, delta_v, m1, m2, d1: int,
                d2: int):
    """δ(m(e_i, e_j)) against Σ m1(u1, v1) ⊗ m2(u2, v2) over δ_u e_i =
    Σ u1⊗u2 and δ_v e_j = Σ v1⊗v2, that is (m1⊗m2)(1⊗τ⊗1)(δ_u⊗δ_v), into
    W1⊗W2 of dimensions d1 and d2; m: U⊗V → W and δ: W → W1⊗W2.

    With δ_u e_i = Σ D_i[a,b] a⊗b and δ_v e_j = Σ D_j[c,e] c⊗e, the right
    side is Σ_(c,b) P_i[c][b] ⊗ T_j[c][b], where P_i[c][b] =
    Σ_a D_i[a,b] m1(a,c) is built once per i and T_j[c][b] =
    Σ_e D_j[c,e] m2(b,e) once per j, rather than expanding
    δ_u e_i ⊗ δ_v e_j term by term.  On dense data of dimension d that is
    d^5 scalar products for all the P_i, d^5 for all the T_j and d^6 for
    the tensor products of the columns, instead of d^8.
    """
    flat = flatten_pairs(delta, d2)
    right = []
    for delta_j in delta_v:
        t_j = {}
        for c, fibre in delta_j.items():
            t_jc = t_j[c] = {}
            for b, row in enumerate(m2):
                acc = {}
                for e, cce in fibre.items():
                    vec = row.get(e)
                    if vec:
                        for s, v in vec.items():
                            acc[s] = acc[s] + cce * v if s in acc else cce * v
                if acc:
                    t_jc[b] = acc
        right.append(t_j)
    lhs, rhs = [], []
    for i, delta_i in enumerate(delta_u):
        p_i = {}
        for a, fibre in delta_i.items():
            for b, cab in fibre.items():
                for c, vec in m1[a].items():
                    acc = p_i.setdefault(c, {}).setdefault(b, {})
                    for r, v in vec.items():
                        acc[r] = acc[r] + cab * v if r in acc else cab * v
        m_i = m[i]
        for j, t_j in enumerate(right):
            lhs.append(apply(flat, m_i.get(j, _EMPTY)))
            col, terms = {}, 0
            for c, p_ic in p_i.items():
                t_jc = t_j.get(c)
                if not t_jc:
                    continue
                for b, x_vec in p_ic.items():
                    y_vec = t_jc.get(b)
                    if not y_vec:
                        continue
                    terms += 1
                    for r, x in x_vec.items():
                        base = r * d2
                        for s, y in y_vec.items():
                            k = base + s
                            col[k] = col[k] + x * y if k in col else x * y
            rhs.append({k: v for k, v in col.items() if v}
                       if terms > 1 else col)
    return _pair(field, d1 * d2, lhs, rhs)


def counit_mult(field: Field, m, eps: dict, eps_u: dict, eps_v: dict,
                dv: int):
    """ε(m(e_i, e_j)) against ε_u(e_i) ε_v(e_j), for m: U⊗V → W and
    dv = dim V."""
    lhs, rhs = [], []
    for i, row in enumerate(m):
        e_i = eps_u.get(i)
        for j in range(dv):
            s = sum([c * eps[k] for k, c in row.get(j, _EMPTY).items()
                     if k in eps])
            lhs.append({0: s} if s else {})
            e_j = eps_v.get(j)
            rhs.append({0: e_i * e_j}
                       if e_i is not None and e_j is not None else {})
    return _pair(field, 1, lhs, rhs)


def comult_unit(field: Field, delta, unit: dict, unit_l: dict, unit_r: dict,
                dl: int, dr: int):
    """δ(1) against 1_l ⊗ 1_r, for δ: W → L⊗R and L, R of dimensions dl
    and dr."""
    both = {}
    add_tensor(both, unit_l, unit_r, dr)
    return _pair(field, dl * dr, [apply(flatten_pairs(delta, dr), unit)],
                 [both])


def counit_unit(field: Field, unit: dict, eps: dict):
    """ε(1) against 1."""
    return _pair(field, 1, [pairing(unit, eps)], [{0: field.raw(field.one)}])


def antipode_law(field: Field, delta, s, m, unit: dict, eps: dict,
                 s_first: bool, rows: int, flip: bool = False):
    """Σ m(S h1, h2) (s_first) or Σ m(h1, S h2) over δ e_i = Σ h1⊗h2, with
    the legs flipped first when ``flip``, against ε(e_i)·1, for S in column
    form and 1 the unit of the target, of dimension rows.

    The terms are grouped by the leg that S does not take: for each basis
    vector e_o there, u_o = Σ c·S(e_s) over the terms c·e_s⊗e_o (or
    c·e_o⊗e_s), and then m(u_o, e_o) (or m(e_o, u_o)) is added, which on
    dense data of dimension d is d^4 scalar products in all, not d^5."""
    if s_first:     # the fibres m(p, o), grouped by o
        by_second = {}
        for p, row in enumerate(m):
            for o, vec in row.items():
                by_second.setdefault(o, {})[p] = vec
    lhs, rhs = [], []
    for i, fibres in enumerate(delta):
        grouped = {}
        for j, fibre in fibres.items():
            for k, c in fibre.items():
                h1, h2 = (k, j) if flip else (j, k)
                o, col = (h2, s[h1]) if s_first else (h1, s[h2])
                u = grouped.setdefault(o, {})
                for q, b in col.items():
                    u[q] = u[q] + c * b if q in u else c * b
        acc = {}
        for o, u in grouped.items():
            fibres_m = by_second.get(o, _EMPTY) if s_first else m[o]
            for q, b in u.items():
                vec = fibres_m.get(q)
                if vec and b:
                    for t, v in vec.items():
                        acc[t] = acc[t] + b * v if t in acc else b * v
        lhs.append(nonzero(acc))
        rhs.append({k: eps[i] * u for k, u in unit.items()}
                   if i in eps else {})
    return _pair(field, rows, lhs, rhs)
