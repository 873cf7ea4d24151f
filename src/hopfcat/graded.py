"""Group-graded Hopf structures and their lift to Hopf categories.

A graded record holds one component algebra-of-coalgebras per group element:
component coalgebras (comult/counit per degree), pairwise multiplication
tensors m[s,t]: A_s ⊗ A_t → A_{st}, a unit vector in the degree-e component,
and antipode matrices S_s: A_s → A_{s^{-1}}.

The lift K places A_{s^{-1} t} at the hom slot (s, t) and reuses the graded
tensors verbatim, so round-trip comparisons stay exact.  ``validate_graded``
checks every axiom on every basis element through the shared laws of
``sparse``.
"""

from __future__ import annotations

from . import sparse as sp
from .core import HopfCatData
from .report import Instances, Report
from .scalars import Field
from .schema import LAYOUTS, check_shape
from .value import Value


class GradedError(ValueError):
    """Graded axiom violation; carries the offending degree pair."""

    def __init__(self, message: str, degrees: tuple[str, ...] = ()):
        super().__init__(message)
        self.degrees = degrees


class GroupTable(Value):
    _fields = ("elements", "table")

    def __init__(self, elements: tuple[str, ...],
                 table: dict[tuple[str, str], str]):
        self.elements = elements
        self.table = table

    def validate(self):
        E = self.elements
        if len(set(E)) != len(E):
            raise GradedError("duplicate group elements")
        for a in E:
            for b in E:
                if self.table.get((a, b)) not in E:
                    raise GradedError(f"missing or bad product ({a},{b})",
                                      (a, b))
        for a in E:
            for b in E:
                for c in E:
                    if self.table[(self.table[(a, b)], c)] != \
                            self.table[(a, self.table[(b, c)])]:
                        raise GradedError(
                            f"group table not associative at ({a},{b},{c})",
                            (a, b))
        self.identity()
        for a in E:
            self.inverse(a)

    def identity(self) -> str:
        for e in self.elements:
            if all(self.table[(e, a)] == a and self.table[(a, e)] == a
                   for a in self.elements):
                return e
        raise GradedError("group table has no identity element")

    def inverse(self, a: str) -> str:
        e = self.identity()
        for b in self.elements:
            if self.table[(a, b)] == e and self.table[(b, a)] == e:
                return b
        raise GradedError(f"group element '{a}' has no inverse", (a,))

    def mul(self, a: str, b: str) -> str:
        return self.table[(a, b)]


class GradedHopfData(Value):
    _fields = ("field", "group", "dims", "mult", "unit", "comult", "counit",
               "antipode")

    # mult: m[s,t][i][j][k]; unit: a vector in the degree-e component;
    # comult: per degree D[i][j][k]; antipode: per degree the S_s matrix,
    # rows over A_{s^-1}
    def __init__(self, field: Field, group: GroupTable, dims: dict[str, int],
                 mult: dict[tuple[str, str], list], unit: list,
                 comult: dict[str, list], counit: dict[str, list],
                 antipode: dict[str, list] | None = None):
        self.field = field
        self.group = group
        self.dims = dims
        self.mult = mult
        self.unit = unit
        self.comult = comult
        self.counit = counit
        self.antipode = antipode

    layout = LAYOUTS["graded-hopf"]
    validate_shape = check_shape

    def dim(self, s: str) -> int:
        return self.dims[s]


def validate_graded(h: GradedHopfData) -> Report:
    """All graded axioms (group table included), on every basis element."""
    h.group.validate()
    h.validate_shape()
    rep = Report()
    inst = Instances(rep, h.field)
    G, dims, view = h.group.elements, h.dims, inst.view
    e, check = h.group.identity(), inst.check
    # the product of degrees s and t is mul[s][t]
    mul = view(h.group.table)
    M = view(h.mult, sp.tensor3)
    comult = view(h.comult, sp.tensor3)
    counit = view(h.counit, sp.vector)
    unit = view({e: h.unit}, sp.vector)[e]

    for s in G:
        Ms, mul_s = M[s], mul[s]
        for t in G:
            m, Mst, Mt, mul_t, mul_st = (Ms[t], M[mul_s[t]], M[t], mul[t],
                                         mul[mul_s[t]])
            for r in G:
                check("graded-assoc", (s, t, r), sp.assoc, m, Mst[r],
                      Mt[r], Ms[mul_t[r]], dims[r], dims[mul_st[r]])
    for s in G:
        check("graded-unit-left", (s,), sp.unit_law, M[e][s], unit,
              dims[s], True)
        check("graded-unit-right", (s,), sp.unit_law, M[s][e], unit,
              dims[s], False)
    for s in G:
        d, delta = dims[s], comult[s]
        check("graded-coassoc", (s,), sp.coassoc, delta, delta, delta,
              delta, d, d, d)
        check("graded-counit-left", (s,), sp.counit_law, delta, counit[s],
              True)
        check("graded-counit-right", (s,), sp.counit_law, delta,
              counit[s], False)
    for s in G:
        Ms, mul_s, cs, es = M[s], mul[s], comult[s], counit[s]
        for t in G:
            st, m = mul_s[t], Ms[t]
            check("graded-comult-mult", (s, t), sp.comult_mult, m,
                  comult[st], cs, comult[t], m, m, dims[st], dims[st])
            check("graded-counit-mult", (s, t), sp.counit_mult, m,
                  counit[st], es, counit[t], dims[t])
    check("graded-comult-unit", (e,), sp.comult_unit, comult[e], unit,
          unit, unit, dims[e], dims[e])
    check("graded-counit-unit", (e,), sp.counit_unit, unit, counit[e])
    if h.antipode is not None:
        # S_s: A_s → A_{s^-1}
        sm = view(h.antipode, sp.columns, dims)
        for s in G:
            si = h.group.inverse(s)
            check("graded-antipode-left", (s,), sp.antipode_law,
                  comult[s], sm[s], M[s][si], unit, counit[s], False,
                  dims[e], False)
            check("graded-antipode-right", (s,), sp.antipode_law,
                  comult[s], sm[s], M[si][s], unit, counit[s], True,
                  dims[e], False)
    return rep


def from_graded(h: GradedHopfData) -> HopfCatData:
    """Lift a graded Hopf structure to the Hopf category with the group as
    object set and A_{s^{-1} t} in the hom slot (s, t)."""
    rep = validate_graded(h)
    if not rep.overall:
        bad = rep.failed()[0]
        raise GradedError(
            f"graded axioms fail: {bad.axiom} at {bad.objects}", bad.objects)
    G = h.group.elements
    inv = {s: h.group.inverse(s) for s in G}
    mul = h.group.mul

    def slot(s, t):
        return mul(inv[s], t)

    dims = {(s, t): h.dim(slot(s, t)) for s in G for t in G}
    mult = {(s, r, t): h.mult[(slot(s, r), slot(r, t))]
            for s in G for r in G for t in G}
    unit = {s: h.unit for s in G}
    comult = {(s, t): h.comult[slot(s, t)] for s in G for t in G}
    counit = {(s, t): h.counit[slot(s, t)] for s in G for t in G}
    antipode = None
    if h.antipode is not None:
        # S_g lands in degree g^{-1}, which is exactly the (t, s) slot.
        antipode = {(s, t): h.antipode[slot(s, t)] for s in G for t in G}
    return HopfCatData(h.field, G, dims, mult, unit, comult, counit, antipode)
