"""Stock structures used throughout the test-suite and shipped as files.

Everything is built over an arbitrary exact field (rationals by default):
group algebras of small cyclic groups, linearized pair groupoids, a disjoint
union groupoid, the classical four-dimensional Hopf algebra with
non-involutive antipode, the two-element idempotent-monoid bialgebra (which
admits no antipode), and two graded fixtures on a two-element group — one
strongly graded, one with a vanishing component.
"""

from __future__ import annotations

from .core import HopfCatData
from .graded import GradedHopfData, GroupTable
from .groupoid import (GroupoidData, cyclic_group_groupoid, disjoint_union,
                       linearize_groupoid, pair_groupoid)
from .scalars import QQ, Field
from .schema import tensor


def singleton_hopf(field: Field, dim: int, mult, unit, comult, counit,
                   antipode=None, obj: str = "*") -> HopfCatData:
    """Wrap classical one-object structure constants as a Hopf category."""
    return HopfCatData(
        field, (obj,), {(obj, obj): dim}, {(obj, obj, obj): mult},
        {obj: unit}, {(obj, obj): comult}, {(obj, obj): counit},
        None if antipode is None else {(obj, obj): antipode})


def group_algebra(field: Field, n: int) -> HopfCatData:
    """kZ/n with grouplike basis g0..g(n-1) and inversion antipode."""
    return linearize_groupoid(cyclic_group_groupoid(n), field)


def taft_four_dim(field: Field) -> HopfCatData:
    """The classical 4-dimensional Hopf algebra on 1, g, x, gx with g^2 = 1,
    x^2 = 0, xg = -gx; its antipode squares to the non-identity involution."""
    zero, one = field.zero, field.one
    I, G, Xx, W = range(4)  # basis order: 1, g, x, w (w = gx)
    table = {   # e_i·e_j = c·e_k; x·x = x·w = w·x = w·w = 0
        (I, I): (I, 1), (I, G): (G, 1), (I, Xx): (Xx, 1), (I, W): (W, 1),
        (G, I): (G, 1), (G, G): (I, 1), (G, Xx): (W, 1), (G, W): (Xx, 1),
        (Xx, I): (Xx, 1), (Xx, G): (W, -1), (W, I): (W, 1), (W, G): (Xx, -1),
    }
    mult = tensor(zero, (4, 4, 4), (((i, j, k), field.of(c))
                                    for (i, j), (k, c) in table.items()))
    # x ↦ 1⊗x + x⊗g and w ↦ g⊗w + w⊗1; 1 and g are grouplike
    comult = tensor(zero, (4, 4, 4), ((idx, one) for idx in (
        (I, I, I), (G, G, G), (Xx, I, Xx), (Xx, Xx, G), (W, G, W),
        (W, W, I))))
    # S: 1↦1, g↦g, x↦w, w↦-x, stored as antipode[image][source]
    antipode = tensor(zero, (4, 4), [((I, I), one), ((G, G), one),
                                     ((W, Xx), one), ((Xx, W), -one)])
    unit = tensor(zero, (4,), [((I,), one)])
    counit = tensor(zero, (4,), [((I,), one), ((G,), one)])
    return singleton_hopf(field, 4, mult, unit, comult, counit, antipode)


def idempotent_monoid_bialgebra(field: Field) -> HopfCatData:
    """The monoid bialgebra of {1, z} with z·z = z; grouplike z forces any
    antipode candidate to fail, and its Galois map is singular."""
    zero, one = field.zero, field.one
    # basis order 1, z: the product of two basis elements is the larger one
    mult = tensor(zero, (2, 2, 2), (((i, j, max(i, j)), one)
                                    for i in range(2) for j in range(2)))
    comult = tensor(zero, (2, 2, 2), [((0, 0, 0), one), ((1, 1, 1), one)])
    unit = tensor(zero, (2,), [((0,), one)])
    counit = tensor(zero, (2,), [((0,), one), ((1,), one)])
    return singleton_hopf(field, 2, mult, unit, comult, counit, None)


def idempotent_antipode_candidates(field: Field) -> dict[str, list]:
    """Candidate antipode matrices for the idempotent-monoid bialgebra;
    every one of them violates the antipode identities (none can exist)."""
    zero, one = field.zero, field.one

    def candidate(*ones):
        return tensor(zero, (2, 2), ((idx, one) for idx in ones))
    return {
        "identity": candidate((0, 0), (1, 1)),
        "collapse-to-unit": candidate((0, 0), (0, 1)),
        "kill-z": candidate((0, 0)),
    }


# -- groupoid fixtures ---------------------------------------------------------

def z2_groupoid() -> GroupoidData:
    return cyclic_group_groupoid(2, "*")


def pair_groupoid_2() -> GroupoidData:
    return pair_groupoid(("1", "2"))


def pair_groupoid_3() -> GroupoidData:
    return pair_groupoid(("1", "2", "3"))


def disjoint_union_groupoid() -> GroupoidData:
    """Z/2 at object 'a' next to a trivial group at object 'b'."""
    z2 = GroupoidData(("a",), (("e", "a", "a"), ("s", "a", "a")),
                      {"a": "e"},
                      {("e", "e"): "e", ("e", "s"): "s",
                       ("s", "e"): "s", ("s", "s"): "e"},
                      {"e": "e", "s": "s"})
    triv = GroupoidData(("b",), (("t", "b", "b"),), {"b": "t"},
                        {("t", "t"): "t"}, {"t": "t"})
    return disjoint_union(z2, triv)


# -- graded fixtures -------------------------------------------------------------

def _z2_table() -> GroupTable:
    return GroupTable(("e", "g"), {("e", "e"): "e", ("e", "g"): "g",
                                   ("g", "e"): "g", ("g", "g"): "e"})


def _graded_z2(field: Field, dims: dict[str, int]) -> GradedHopfData:
    """A graded structure on Z/2 with components of dimension 0 or 1, each
    structure constant 1 where no factor is zero-dimensional."""
    group = _z2_table()

    def ones(*degrees):
        shape = tuple(dims[s] for s in degrees)
        return tensor(field.zero, shape,
                      [((0,) * len(shape), field.one)] if all(shape) else [])
    G = group.elements
    return GradedHopfData(
        field, group, dims,
        {(s, t): ones(s, t, group.mul(s, t)) for s in G for t in G},
        ones(group.identity()),
        {s: ones(s, s, s) for s in G},
        {s: ones(s) for s in G},
        {s: ones(group.inverse(s), s) for s in G})


def strongly_graded_z2(field: Field) -> GradedHopfData:
    """kZ/2 sliced by degree: both components one-dimensional, all products 1."""
    return _graded_z2(field, {"e": 1, "g": 1})


def zero_component_graded_z2(field: Field) -> GradedHopfData:
    """Trivial algebra graded by Z/2 with an empty odd component."""
    return _graded_z2(field, {"e": 1, "g": 0})


# -- registry -------------------------------------------------------------------

def hopf_fixtures(field: Field = QQ) -> dict[str, HopfCatData]:
    """Every stock structure that passes the full Hopf level."""
    from .graded import from_graded
    return {
        "kz2": group_algebra(field, 2),
        "kz3": group_algebra(field, 3),
        "taft4": taft_four_dim(field),
        "pair2": linearize_groupoid(pair_groupoid_2(), field),
        "pair3": linearize_groupoid(pair_groupoid_3(), field),
        "disjoint": linearize_groupoid(disjoint_union_groupoid(), field),
        "graded-z2-strong": from_graded(strongly_graded_z2(field)),
        "graded-z2-zero": from_graded(zero_component_graded_z2(field)),
    }
