"""Every constructor on ``schema.tensor`` against the hand-filled body it
replaced (``oracles.reference_*``).

Groupoid linearization, kZ/n and the Taft algebra must give equal data and
equal canonical bytes over Q, GF(5) and GF(2^61 - 1): linearization on every
groupoid fixture, the pair groupoids on 1 to 5 objects, disjoint unions
whose mixed homs are zero-dimensional, the cyclic groups of order 1 to 8,
and connected groupoids with vertex group Z/3 whose morphisms are declared
in a shuffled order (so that f ↦ f⁻¹ between two homs is not an involution
of the basis indices, and a transposed antipode shows); kZ/n for the same
orders.  Groupoid validation, which now visits only composable pairs and
triples, must raise the same first error with the same message as the
reference on every single-entry corruption of the groupoid fixtures.
"""

import os
import random

import pytest

from oracles import (reference_group_algebra, reference_linearize_groupoid,
                     reference_taft_four_dim, reference_validate_groupoid)

from hopfcat.fileformat import load, serialize
from hopfcat.fixtures import group_algebra, taft_four_dim
from hopfcat.groupoid import (GroupoidData, GroupoidError,
                              cyclic_group_groupoid, disjoint_union,
                              linearize_groupoid, pair_groupoid,
                              validate_groupoid)
from hopfcat.scalars import GF, QQ

FIELDS = [QQ, GF(5), GF((1 << 61) - 1)]
FIELD_IDS = ["q", "fp5", "fp61"]


def _same(new, old):
    assert new == old
    assert serialize(new) == serialize(old)


def shuffled_z3_groupoid(objects, seed):
    """Z/3 × the pair groupoid on ``objects``, morphisms in seeded order:
    ``k_x_y`` is g^k from y to x."""
    name = {(k, x, y): f"{k}_{x}_{y}"
            for k in range(3) for x in objects for y in objects}
    morphisms = [(m, y, x) for (k, x, y), m in name.items()]
    random.Random(seed).shuffle(morphisms)
    return GroupoidData(
        objects, tuple(morphisms), {x: name[(0, x, x)] for x in objects},
        {(name[(k, x, y)], name[(j, y, z)]): name[((k + j) % 3, x, z)]
         for k in range(3) for j in range(3)
         for x in objects for y in objects for z in objects},
        {m: name[(-k % 3, y, x)] for (k, x, y), m in name.items()})


def groupoids(fixture_dir):
    out = {name[:-3]: load(os.path.join(fixture_dir, name))
           for name in sorted(os.listdir(fixture_dir))
           if name.endswith("_groupoid.hc")}
    for n in range(1, 6):
        out[f"pair{n}"] = pair_groupoid(tuple(f"o{i}" for i in range(n)))
    for n in range(1, 9):
        out[f"z{n}"] = cyclic_group_groupoid(n)
    out["pair2+z3"] = disjoint_union(pair_groupoid(("a", "b")),
                                     cyclic_group_groupoid(3, "c"))
    out["pair1+pair3+z2"] = disjoint_union(
        disjoint_union(pair_groupoid(("a",)), pair_groupoid(("b", "c", "d"))),
        cyclic_group_groupoid(2, "e"))
    for seed in range(3):
        out[f"z3x{seed}"] = shuffled_z3_groupoid(("a", "b", "c"), seed)
    return out


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_linearize_groupoid(fixture_dir, field):
    cases = groupoids(fixture_dir)
    assert len(cases) == 4 + 5 + 8 + 2 + 3
    assert any(0 in linearize_groupoid(g, field).dims.values()
               for g in cases.values())
    for g in cases.values():
        _same(linearize_groupoid(g, field),
              reference_linearize_groupoid(g, field))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_group_algebra(field):
    for n in range(1, 9):
        _same(group_algebra(field, n), reference_group_algebra(field, n))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_taft_four_dim(field):
    _same(taft_four_dim(field), reference_taft_four_dim(field))


def corruptions(g: GroupoidData):
    """Each copy of ``g`` with one ``compose``, ``identities`` or
    ``inverses`` entry dropped, or redirected to another morphism name or to
    an undeclared one."""
    names = [m[0] for m in g.morphisms] + ["undeclared"]
    for table in ("compose", "identities", "inverses"):
        entries = getattr(g, table)
        for key, value in entries.items():
            changed = [{k: v for k, v in entries.items() if k != key}]
            changed += [{**entries, key: name} for name in names
                        if name != value]
            for new in changed:
                yield GroupoidData(**{**vars(g), table: new})


def outcome(validate, g):
    try:
        validate(g)
    except GroupoidError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", ["pair3", "z2", "disjoint", "z3xpair2"])
def test_validate_groupoid_on_every_single_entry_corruption(fixture_dir,
                                                             name):
    # the groupoid fixtures, and Z/3 × the pair groupoid on 2 objects, whose
    # corruptions also reach the associativity check
    g = shuffled_z3_groupoid(("a", "b"), 0) if name == "z3xpair2" \
        else load(os.path.join(fixture_dir, f"{name}_groupoid.hc"))
    assert outcome(validate_groupoid, g) is None
    seen = set()
    for bad in corruptions(g):
        want = outcome(reference_validate_groupoid, bad)
        assert outcome(validate_groupoid, bad) == want
        seen.add(want.split()[0] if want else None)
    assert "missing" in seen and "composite" in seen
    assert (name == "z3xpair2") == ("composition" in seen)
