"""Finite groupoids as explicit tables, and their linearization.

A groupoid is stored with one morphism table: ``compose[(g, h)] = g∘h`` is
defined exactly when ``target(h) == source(g)``.  Linearization takes the
morphisms y → x as the basis of the hom object A(x,y), extends composition
bilinearly, makes every basis element grouplike, and inverts it under the
antipode.
"""

from __future__ import annotations

from .core import HopfCatData
from .scalars import Field
from .schema import LAYOUTS, tensor
from .value import Value


class GroupoidError(ValueError):
    """Validation failure; the message names the offending morphism(s)."""


class GroupoidData(Value):
    _fields = ("objects", "morphisms", "identities", "compose", "inverses")

    # morphisms: (name, source, target); identities: object -> morphism
    # name; compose: (g, h) -> g∘h
    def __init__(self, objects: tuple[str, ...],
                 morphisms: tuple[tuple[str, str, str], ...],
                 identities: dict[str, str],
                 compose: dict[tuple[str, str], str],
                 inverses: dict[str, str]):
        self.objects = objects
        self.morphisms = morphisms
        self.identities = identities
        self.compose = compose
        self.inverses = inverses

    layout = LAYOUTS["groupoid"]

    def source(self, g: str) -> str:
        return self._by_name[g][1]

    def target(self, g: str) -> str:
        return self._by_name[g][2]

    @property
    def _by_name(self):
        return {m[0]: m for m in self.morphisms}

    def hom(self, x: str, y: str) -> list[str]:
        """Morphisms y → x, in declared morphism order."""
        return [m[0] for m in self.morphisms if m[1] == y and m[2] == x]


def validate_groupoid(g: GroupoidData):
    by_name = {}
    for name, src, tgt in g.morphisms:
        if name in by_name:
            raise GroupoidError(f"duplicate morphism name '{name}'")
        if src not in g.objects or tgt not in g.objects:
            raise GroupoidError(f"morphism '{name}' uses undeclared objects")
        by_name[name] = (src, tgt)

    for x in g.objects:
        e = g.identities.get(x)
        if e is None or e not in by_name:
            raise GroupoidError(f"object '{x}' has no identity morphism")
        if by_name[e] != (x, x):
            raise GroupoidError(f"identity '{e}' of '{x}' is not an endo of '{x}'")

    comp = g.compose
    for (f, h), fh in comp.items():
        if f not in by_name or h not in by_name or fh not in by_name:
            raise GroupoidError(f"composite entry ({f},{h}) names unknown morphisms")
        if by_name[f][0] != by_name[h][1]:
            raise GroupoidError(f"({f},{h}) is not a composable pair")
        if by_name[fh] != (by_name[h][0], by_name[f][1]):
            raise GroupoidError(f"composite of ({f},{h}) has wrong endpoints")
    # into[x]: the morphisms with target x, in declared order, so that the
    # pairs and triples below are the composable ones only
    into = {x: [] for x in g.objects}
    for name, (src, tgt) in by_name.items():
        into[tgt].append(name)
    for f, (fs, ft) in by_name.items():
        for h in into[fs]:
            if (f, h) not in comp:
                raise GroupoidError(f"missing composite for pair ({f},{h})")

    for name, (src, tgt) in by_name.items():
        if comp[(name, g.identities[src])] != name:
            raise GroupoidError(f"identity of '{src}' is not right-neutral at '{name}'")
        if comp[(g.identities[tgt], name)] != name:
            raise GroupoidError(f"identity of '{tgt}' is not left-neutral at '{name}'")

    for f, (fs, ft) in by_name.items():
        for h in into[fs]:
            fh = comp[(f, h)]
            for k in into[by_name[h][0]]:
                if comp[(fh, k)] != comp[(f, comp[(h, k)])]:
                    raise GroupoidError(
                        f"composition not associative at ({f},{h},{k})")

    for name, (src, tgt) in by_name.items():
        inv = g.inverses.get(name)
        if inv is None or inv not in by_name:
            raise GroupoidError(f"morphism '{name}' has no inverse")
        if by_name[inv] != (tgt, src):
            raise GroupoidError(f"inverse of '{name}' has wrong endpoints")
        if comp[(name, inv)] != g.identities[tgt] or \
                comp[(inv, name)] != g.identities[src]:
            raise GroupoidError(f"'{inv}' is not a two-sided inverse of '{name}'")


def linearize_groupoid(g: GroupoidData, field: Field) -> HopfCatData:
    """The k-linear Hopf category on the hom sets of a groupoid.  Every
    structure constant is 0 or 1, so a tensor is its shape and the indices
    of its ones; each distinct one is built once and shared by every key
    that has it (``built``), as the reader would share it."""
    validate_groupoid(g)
    X = g.objects
    zero, one = field.zero, field.one
    basis = {(x, y): [] for x in X for y in X}
    for name, src, tgt in g.morphisms:   # as g.hom(tgt, src), in one pass
        basis[(tgt, src)].append(name)
    index = {key: {m: i for i, m in enumerate(ms)}
             for key, ms in basis.items()}
    dims = {key: len(ms) for key, ms in basis.items()}
    built = {}      # (shape, indices of the ones) -> the tensor

    def ones(shape, where):
        where = tuple(where)
        t = built.get((shape, where))
        if t is None:
            t = built[shape, where] = tensor(zero, shape,
                                             ((idx, one) for idx in where))
        return t
    mult = {(x, y, z): ones(
        (dims[(x, y)], dims[(y, z)], dims[(x, z)]),
        ((i, j, index[(x, z)][g.compose[(f, h)]])
         for i, f in enumerate(basis[(x, y)])
         for j, h in enumerate(basis[(y, z)])))
        for x in X for y in X for z in X}
    unit = {x: ones((dims[(x, x)],), [(index[(x, x)][g.identities[x]],)])
            for x in X}
    comult = {key: ones((d, d, d), ((i, i, i) for i in range(d)))
              for key, d in dims.items()}
    counit = {key: ones((d,), ((i,) for i in range(d)))
              for key, d in dims.items()}
    # S(f) = f⁻¹, stored transposed: antipode[(x, y)][index of f⁻¹][f]
    antipode = {(x, y): ones(
        (dims[(y, x)], dims[(x, y)]),
        ((index[(y, x)][g.inverses[f]], i)
         for i, f in enumerate(basis[(x, y)])))
        for x in X for y in X}
    return HopfCatData(field, X, dims, mult, unit, comult, counit, antipode)


# -- stock groupoids ----------------------------------------------------------

def group_groupoid(label: str, elements: tuple[str, ...],
                   table: dict[tuple[str, str], str],
                   identity: str) -> GroupoidData:
    """A one-object groupoid from a group multiplication table."""
    inv = {}
    for a in elements:
        for b in elements:
            if table[(a, b)] == identity and table[(b, a)] == identity:
                inv[a] = b
    morphisms = tuple((e, label, label) for e in elements)
    return GroupoidData((label,), morphisms, {label: identity},
                        dict(table), inv)


def cyclic_group_groupoid(n: int, label: str = "*") -> GroupoidData:
    elems = tuple(f"g{i}" for i in range(n))
    table = {(f"g{i}", f"g{j}"): f"g{(i + j) % n}"
             for i in range(n) for j in range(n)}
    return group_groupoid(label, elems, table, "g0")


def pair_groupoid(objects: tuple[str, ...]) -> GroupoidData:
    """Exactly one morphism between every ordered pair of objects."""
    name = {(x, y): f"p_{x}_{y}" for x in objects for y in objects}
    morphisms = tuple((name[(x, y)], y, x) for x in objects for y in objects)
    identities = {x: name[(x, x)] for x in objects}
    compose = {}
    for x in objects:
        for y in objects:
            for z in objects:
                # (x<-y) ∘ (y<-z) = (x<-z)
                compose[(name[(x, y)], name[(y, z)])] = name[(x, z)]
    inverses = {name[(x, y)]: name[(y, x)] for x in objects for y in objects}
    return GroupoidData(objects, morphisms, identities, compose, inverses)


def disjoint_union(g1: GroupoidData, g2: GroupoidData) -> GroupoidData:
    if set(g1.objects) & set(g2.objects):
        raise GroupoidError("disjoint union needs disjoint object labels")
    names1 = {m[0] for m in g1.morphisms}
    if names1 & {m[0] for m in g2.morphisms}:
        raise GroupoidError("disjoint union needs disjoint morphism names")
    return GroupoidData(
        g1.objects + g2.objects,
        g1.morphisms + g2.morphisms,
        {**g1.identities, **g2.identities},
        {**g1.compose, **g2.compose},
        {**g1.inverses, **g2.inverses})
