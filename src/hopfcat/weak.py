"""Packing finite (dual) Hopf categories into single weak Hopf algebras.

``pack`` assembles the matrix of hom objects into one algebra on the direct
sum, with zero products for non-composable blocks; ``pack_dual`` assembles the
direct product of the per-pair algebras with the summed cocomposition.  Both
outputs, and any hand-built data of the same shape, go through
``verify_weak_hopf``, which checks the weak bialgebra laws and the three
antipode identities against internally computed source and target counital
maps, exactly, on the ``sparse`` arithmetic.

``WeakHopfData`` stores each tensor as a sparse slot of ``schema``, so
packing, the verifier's per-index views of the constants and each law's
sums cost O(nonzeros), never one step per cell of the block-sparse total
space.

Blocks are ordered lexicographically in the declared object order, so packed
output is canonical and diffable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import add

from . import sparse as sp
from .core import HopfCatData, MissingAntipodeError
from .dual import DualHopfCatData
from .report import Report, check_condition, residual
from .scalars import Field
from .schema import LAYOUTS, check_shape, nonzero_entries


@dataclass
class WeakHopfData:
    field: Field
    total_dim: int
    blocks: tuple[tuple[tuple[str, str], int, int], ...]  # ((x,y), offset, len)
    mult: dict      # {(i, j, k): c}: e_i·e_j = Σ c e_k
    unit: dict      # {(i,): c}
    comult: dict    # {(i, j, k): c}: Δ(e_i) = Σ c e_j⊗e_k
    counit: dict    # {(i,): c}
    antipode: dict | None = None   # {(i, j): c}: S(e_i) = Σ c e_j

    layout = LAYOUTS["weak-hopf"]
    validate_shape = check_shape


# -- packing --------------------------------------------------------------------

def _packed(src, parts) -> WeakHopfData:
    """The weak Hopf data on the direct sum of the homs of ``src``, a
    (dual) Hopf category, in lexicographic block order, holding for each
    (tag, tensor, block pairs) of ``parts(src.objects)`` the tensor's
    nonzero entries, each record index shifted by its block's offset."""
    src.validate_shape()
    if src.antipode is None:
        raise MissingAntipodeError("packing needs an antipode")
    blocks, off, total = [], {}, 0
    for pair in product(src.objects, repeat=2):
        blocks.append((pair, total, src.dims[pair]))
        off[pair], total = total, total + src.dims[pair]
    out = {slot.tag: {} for slot in WeakHopfData.layout.slots}
    for tag, t, pairs in parts(src.objects):
        entries = nonzero_entries(t, len(pairs))
        if tag == "antipode":   # stored [j][i] in both source kinds
            entries = [((i, j), v) for (j, i), v in entries]
        put, offs = out[tag], [off[pair] for pair in pairs]
        for idx, v in entries:
            put[tuple(map(add, offs, idx))] = v
    return WeakHopfData(src.field, total, tuple(blocks), **out)


def pack(a: HopfCatData) -> WeakHopfData:
    """One algebra on the direct sum of all hom objects; blocks multiply
    through composition when the inner objects match and give zero otherwise."""
    def parts(X):
        for x in X:
            yield "unit", a.unit[x], ((x, x),)
        for x, y in product(X, repeat=2):
            for z in X:
                yield "mult", a.mult[x, y, z], ((x, y), (y, z), (x, z))
            yield "comult", a.comult[x, y], ((x, y),) * 3
            yield "counit", a.counit[x, y], ((x, y),)
            # S(x,y) maps the (x,y) block into the (y,x) block
            yield "antipode", a.antipode[x, y], ((x, y), (y, x))
    return _packed(a, parts)


def pack_dual(c: DualHopfCatData) -> WeakHopfData:
    """Direct product of the per-pair algebras with summed cocomposition,
    counit supported on the diagonal blocks, and block-transposed antipode."""
    def parts(X):
        for x in X:
            yield "counit", c.counit[x], ((x, x),)
        for x, y in product(X, repeat=2):
            yield "mult", c.alg[x, y], ((x, y),) * 3
            yield "unit", c.unit[x, y], ((x, y),)
            # S(y,x): C(x,y) → C(y,x) maps the (x,y) block into the (y,x) block
            yield "antipode", c.antipode[y, x], ((x, y), (y, x))
            for z in X:
                yield "comult", c.cocomp[x, y, z], ((x, z), (x, y), (y, z))
    return _packed(c, parts)


# -- verification -----------------------------------------------------------------

class _Tensors:
    """Sparse views of a ``WeakHopfData``'s structure constants, read once per
    call, and the element operations the weak Hopf laws are written in.

    ``comult[i]`` is Δ(e_i) as ``{(a, b): c}``, ``delta_left[a]`` is
    ``{(i, b): c}`` over the terms c e_a⊗e_b of each Δ(e_i),
    ``pairing[i][a]`` is ε(e_i·e_a), the bilinear form through which every
    counital expression is evaluated, and ``column[a]`` lists the
    ``(i, ε(e_i·e_a))`` that are not zero.  ``eps_t`` and ``eps_s`` are the
    sparse columns of the counital maps: ``eps_t[i]`` is
    ε_t(e_i) = ε(1₁·e_i) 1₂ and ``eps_s[i]`` is ε_s(e_i) = 1₁ ε(e_i·1₂).
    """

    def __init__(self, w: WeakHopfData):
        n, f, raw = w.total_dim, w.field, w.field.raw
        self.one, self.zero = raw(f.one), raw(f.zero)
        self.mult, self.comult, self.antipode, self.delta_left = (
            [{} for _ in range(n)] for _ in range(4))
        for (i, j, k), c in w.mult.items():
            if c:
                self.mult[i].setdefault(j, {})[k] = raw(c)
        for (i, j, k), c in w.comult.items():
            if c:
                self.comult[i][j, k] = self.delta_left[j][i, k] = raw(c)
        for (i, j), c in (w.antipode or {}).items():
            if c:
                self.antipode[i][j] = raw(c)
        self.counit, self.unit = ({i: raw(c) for (i,), c in v.items() if c}
                                  for v in (w.counit, w.unit))
        self.pairing = [f.reduce({a: self.eps(vec)
                                  for a, vec in rows.items()})
                        for rows in self.mult]
        self.unit_delta = self.delta(self.unit)
        self.column = [[] for _ in range(n)]
        for i, row in enumerate(self.pairing):
            for a, x in row.items():
                self.column[a].append((i, x))
        eps_t, eps_s = [{} for _ in range(n)], [{} for _ in range(n)]
        for (a, b), v in self.unit_delta.items():
            for i, x in self.pairing[a].items():
                sp.add(eps_t[i], b, v * x)
            for i, x in self.column[b]:
                sp.add(eps_s[i], a, v * x)
        self.eps_t, self.eps_s = ([sp.nonzero(c) for c in cols]
                                  for cols in (eps_t, eps_s))

    def delta(self, u: dict) -> dict:
        acc = {}
        for i, c in u.items():
            sp.axpy(acc, c, self.comult[i])
        return sp.nonzero(acc)

    def eps(self, u: dict):
        s = self.zero
        for i, c in u.items():
            if i in self.counit:
                s = s + c * self.counit[i]
        return s


def verify_weak_hopf(w: WeakHopfData) -> Report:
    """Associativity/unit, coassociativity/counit, multiplicativity of the
    comultiplication, both orderings of the weak counit law, both weak unit
    identities, and the three antipode identities against the internally
    computed source/target counital maps.

    Every law is checked on every basis element, pair or triple it ranges
    over; the weak counit law in particular on all n³ triples.  Both sides
    of a law are summed over the nonzero constants, keyed by instance, and
    compared on the union of their keys in lexicographic order: any other
    instance has two empty sides, so the law holds there and is still
    checked, as associativity on a triple (i, j, k) with e_i·e_j = 0 and
    e_j·e_k = 0 always was.  A residual comes
    from the reduced difference of the two sides, so a sum that cancels
    inside one side changes nothing.  A failing instance is recorded under
    the blocks of its basis elements.
    """
    w.validate_shape()
    if w.antipode is None:
        raise MissingAntipodeError("weak Hopf verification needs an antipode")
    t = _Tensors(w)
    n, mult, comult, antipode = w.total_dim, t.mult, t.comult, t.antipode
    field, fmt = w.field, w.field.fmt
    blk = [pair for (pair, _, ln) in w.blocks for _ in range(ln)]
    basis = [{i: t.one} for i in range(n)]
    rep = Report()

    def fail(axiom, objects, witness, res):
        check_condition(rep, axiom, objects, False, residual=res,
                        witness=witness)

    def check(axiom, indices, witness, lhs, rhs):   # labelled on failure
        res = residual(field, lhs, rhs)
        if res:
            fail(axiom, sum((blk[b] for b in indices), ()), witness, res)

    def summarize(*axioms, res=""):
        for axiom in axioms:
            check_condition(rep, axiom, (), not rep.by_axiom(axiom),
                            residual=res)

    # left_of[q]: the i with e_i·e_q != 0
    left_of = [[] for _ in range(n)]
    for i, row in enumerate(mult):
        for q in row:
            left_of[q].append(i)

    # algebra laws: (e_i e_j) e_k = Σ_m c_ij^m e_m e_k and
    # e_i (e_j e_k) = Σ_m c_jk^m e_i e_m, each summed by (i, j, k)
    lhs, rhs = {}, {}
    for i, row in enumerate(mult):
        for j, ij in row.items():
            for m, c in ij.items():
                for k, mk in mult[m].items():
                    sp.axpy(lhs.setdefault((i, j, k), {}), c, mk)
    for j, row in enumerate(mult):
        for k, jk in row.items():
            for m, c in jk.items():
                for i in left_of[m]:
                    sp.axpy(rhs.setdefault((i, j, k), {}), c, mult[i][m])
    for ijk in sorted(lhs.keys() | rhs.keys()):
        check("assoc", ijk, ijk[0], lhs.get(ijk, {}), rhs.get(ijk, {}))
    summarize("assoc", res="see items")

    for i, e_i in enumerate(basis):
        res = residual(field, sp.product(mult, t.unit, e_i), e_i) \
            or residual(field, sp.product(mult, e_i, t.unit), e_i)
        if res:
            fail("unit", blk[i], i, res)
    summarize("unit")

    # coalgebra laws
    for i, delta in enumerate(comult):
        left, right, lc, rc = {}, {}, {}, {}
        for (a, b), v in delta.items():
            for (p, q), u in comult[a].items():
                sp.add(left, (p, q, b), v * u)
            for (p, q), u in comult[b].items():
                sp.add(right, (a, p, q), v * u)
            sp.add(lc, b, v * t.counit.get(a, t.zero))
            sp.add(rc, a, v * t.counit.get(b, t.zero))
        check("coassoc", (i,), i, left, right)
        res = residual(field, lc, basis[i]) \
            or residual(field, rc, basis[i])
        if res:
            fail("counit", blk[i], i, res)
    summarize("coassoc", "counit")

    # comultiplication is multiplicative: Δ(e_i)Δ(e_j) is summed for all j
    # at once, over the terms e_a⊗e_b of Δ(e_i), the e_p with e_a e_p != 0
    # and the terms of each Δ(e_j) whose left leg is e_p (``delta_left``)
    for i in range(n):
        rhs = {}
        for (a, b), u in comult[i].items():
            for p, first in mult[a].items():
                for (j, q), v in t.delta_left[p].items():
                    second = mult[b].get(q)
                    if second:
                        acc = rhs.setdefault(j, {})
                        for r, cr in first.items():
                            for s, cs in second.items():
                                sp.add(acc, (r, s), u * v * cr * cs)
        for j in sorted(rhs.keys() | mult[i].keys()):
            check("comult-mult", (i, j), i,
                  t.delta(mult[i].get(j, {})), rhs.get(j, {}))
    summarize("comult-mult")

    # weak counit law ε(e_i e_j e_k) = Σ ε(e_i y₁) ε(y₂ e_k)
    # = Σ ε(e_i y₂) ε(y₁ e_k) with Δ(e_j) = Σ y₁⊗y₂: all three sides are
    # read off the pairing P[i][a] = ε(e_i·e_a) and summed by (i, j, k);
    # a split term ε(e_i e_a) ε(e_b e_k) is found through column a of P
    # and row b
    pairing, column = t.pairing, t.column
    whole, s1, s2 = {}, {}, {}
    for i, row in enumerate(mult):
        for j, ij in row.items():
            for m, c in ij.items():
                for k, x in pairing[m].items():
                    sp.add(whole, (i, j, k), c * x)
    for j, delta in enumerate(comult):
        for (a, b), c in delta.items():
            for acc, left, right in ((s1, a, b), (s2, b, a)):
                for i, x in column[left]:
                    for k, y in pairing[right].items():
                        sp.add(acc, (i, j, k), c * x * y)
    whole, s1, s2 = (field.reduce(x) for x in (whole, s1, s2))
    for ijk in sorted(whole.keys() | s1.keys() | s2.keys()):
        v, v1, v2 = (x.get(ijk, t.zero) for x in (whole, s1, s2))
        if v1 == v and v2 == v:
            continue
        i, j, k = ijk
        res = f"eps(hkl)={fmt(v)} split1={fmt(v1)} split2={fmt(v2)}"
        objects = blk[i] + blk[j] + blk[k]
        if v1 != v:
            fail("weak-counit-left", objects, j, res)
        if v2 != v:
            fail("weak-counit-right", objects, j, res)
    summarize("weak-counit-left", "weak-counit-right")

    # weak unit laws: in 1₁ ⊗ 1₂1'₁ ⊗ 1'₂ (mid) and 1₁ ⊗ 1'₁1₂ ⊗ 1'₂
    # (mid_op), the terms of the second Δ(1) are found by their left leg 1'₁,
    # which must multiply with 1₂
    unit_left = [[] for _ in range(n)]
    for (a, b), v in t.unit_delta.items():
        unit_left[a].append((b, v))
    ddl, mid, mid_op = {}, {}, {}
    for (a, b), v in t.unit_delta.items():
        for (p, q), u in comult[a].items():
            sp.add(ddl, (p, q, b), v * u)
        for c, bc in mult[b].items():
            for d, u in unit_left[c]:
                for m, cm in bc.items():
                    sp.add(mid, (a, m, d), v * u * cm)
        for c in left_of[b]:
            for d, u in unit_left[c]:
                for m, cm in mult[c][b].items():
                    sp.add(mid_op, (a, m, d), v * u * cm)
    for axiom, lhs in (("weak-unit-left", mid), ("weak-unit-right", mid_op)):
        res = residual(field, lhs, ddl)
        check_condition(rep, axiom, (), not res, residual=res)

    # counital maps and antipode identities
    for i, delta in enumerate(comult):
        target, source, full = {}, {}, {}
        for (a, b), v in delta.items():
            sp.axpy(target, v, sp.product(mult, basis[a], antipode[b]))
            sp.axpy(source, v, sp.product(mult, antipode[a], basis[b]))
            for (p, q), u in comult[b].items():
                # S(h₁) h₂ S(h₃) = S(h)
                s_h1_h2 = sp.product(mult, antipode[a], basis[p])
                sp.axpy(full, v * u, sp.product(mult, s_h1_h2, antipode[q]))
        check("antipode-target", (i,), i, target, t.eps_t[i])
        check("antipode-source", (i,), i, source, t.eps_s[i])
        check("antipode-full", (i,), i, full, antipode[i])
    summarize("antipode-target", "antipode-source", "antipode-full")
    return rep


def counital_target(w: WeakHopfData, vec: dict) -> dict:
    """eps_t(h) = eps(1_(1) h) 1_(2), as a sparse coordinate vector."""
    return sp.nonzero(sp.apply(_Tensors(w).eps_t, vec))


def counital_source(w: WeakHopfData, vec: dict) -> dict:
    """eps_s(h) = 1_(1) eps(h 1_(2))."""
    return sp.nonzero(sp.apply(_Tensors(w).eps_s, vec))
