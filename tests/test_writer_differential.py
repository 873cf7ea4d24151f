"""The one-walk structure writer against the slot-table writer it replaced.

``fileformat.serialize`` reads each stored tensor once, writes its nonzero
cells by one comprehension per rank and formats each distinct scalar object
once per call; ``oracles.reference_serialize`` lists every tensor's entries
through the slot table and formats every cell afresh.  Both must give the
same bytes: on every bundled fixture, and on generated data of every kind
with factors of dimension 0, transposed antipodes, explicit zero cells, one
scalar object shared by many cells and equal values held by distinct
objects.
"""

import glob
import os
import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from oracles import reference_serialize

from hopfcat.core import HopfCatData
from hopfcat.dual import DualHopfCatData
from hopfcat.duoidal import BimonoidData, MkXObject
from hopfcat.fileformat import load, serialize
from hopfcat.fundamental import HopfModuleData
from hopfcat.graded import GradedHopfData, GroupTable
from hopfcat.modules import ComoduleData, ModuleData
from hopfcat.scalars import GF, QQ
from hopfcat.schema import LAYOUTS
from hopfcat.weak import WeakHopfData

FIELDS = (QQ, GF(5), GF(2**61 - 1))


def test_every_fixture(fixture_dir):
    paths = sorted(glob.glob(os.path.join(fixture_dir, "*.hc")))
    assert len(paths) == 35
    for path in paths:
        with open(path) as fh:
            text = fh.read()
        obj = load(path)
        assert serialize(obj) == reference_serialize(obj) == text, path


class Cells:
    """The scalars of one generated structure: each cell is zero, or holds
    the one shared object, a fresh object of a value drawn from a few, or a
    fresh zero object (an explicit zero, which is never written)."""

    def __init__(self, field, rng: random.Random, density: float):
        self.field, self.rng, self.density = field, rng, density
        self.shared = self.value()

    def value(self):
        rng, field = self.rng, self.field
        if field.p is None:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return field.of(rng.choice((1, 2, field.p - 1, rng.randrange(
            field.p))))

    def draw(self):
        rng, zero = self.rng, self.field.zero
        if rng.random() >= self.density:
            return zero
        pick = rng.randrange(4)
        if pick == 0:
            return self.shared
        if pick == 1:       # equal to the shared value, a distinct object
            return self.shared * self.field.one
        if pick == 2:
            return self.field.of(0)
        return self.value()


def fill(obj, cells: Cells, optional: bool):
    """Set every slot of ``obj`` from ``cells`` in the shapes its kind's
    table gives; an optional slot only when ``optional``."""
    kind = type(obj).layout
    frame = kind.frame(obj)
    for slot in kind.slots:
        if slot.optional and not optional:
            setattr(obj, slot.tag, None)
            continue
        table = {}
        for key, shape in slot.shapes(frame):
            t = slot.tensor(shape, cells.field.zero,
                            [(idx, cells.draw())
                             for idx in product(*map(range, shape))])
            table[key[0] if len(key) == 1 else key] = t
        setattr(obj, slot.tag, table[()] if not slot.keys else table)
    return obj


def pair_dims(draw, labels):
    return {key: draw(st.integers(0, 2)) for key in product(labels, repeat=2)}


def hopf_category(draw, cls, field, labels, cells):
    obj = cls(field, labels, pair_dims(draw, labels), *[None] * 5)
    return fill(obj, cells, draw(st.booleans()))


@st.composite
def structures(draw, kind: str):
    field = draw(st.sampled_from(FIELDS))
    cells = Cells(field, random.Random(draw(st.integers(0, 2**32))),
                  draw(st.sampled_from((0.3, 0.7, 1.0))))
    labels = tuple("xyz"[:draw(st.integers(1, 3))])
    if kind in ("hopf-category", "dual-hopf-category"):
        cls = HopfCatData if kind == "hopf-category" else DualHopfCatData
        return hopf_category(draw, cls, field, labels, cells)
    if kind == "weak-hopf":
        blocks, offset = [], 0
        for pair in product(labels[:2], repeat=2):
            n = draw(st.integers(0, 2))
            blocks.append((pair, offset, n))
            offset += n
        return fill(WeakHopfData(field, offset, tuple(blocks), *[None] * 5),
                    cells, draw(st.booleans()))
    if kind == "graded-hopf":
        n = len(labels)
        group = GroupTable(labels, {(labels[a], labels[b]): labels[(a + b) % n]
                                    for a in range(n) for b in range(n)})
        dims = {s: draw(st.integers(0, 2)) for s in labels}
        return fill(GradedHopfData(field, group, dims, *[None] * 5), cells,
                    draw(st.booleans()))
    if kind == "bimonoid":
        carrier = MkXObject(labels, pair_dims(draw, labels))
        return fill(BimonoidData(field, carrier, *[None] * 4), cells, False)
    base = hopf_category(draw, DualHopfCatData if kind == "comodule"
                         else HopfCatData, field, labels, cells)
    dims = pair_dims(draw, labels)
    if kind == "module":
        obj = ModuleData(base, draw(st.sampled_from(("left", "right"))),
                         dims, None)
    elif kind == "comodule":
        obj = ComoduleData(base, dims, None)
    else:
        obj = HopfModuleData(base, dims, None, None)
    obj._base_name = "base"
    return fill(obj, cells, False)


SCALAR_KINDS = [name for name in LAYOUTS if name != "groupoid"]


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_generated_data_of_every_kind(data):
    kind = data.draw(st.sampled_from(SCALAR_KINDS))
    obj = data.draw(structures(kind))
    assert serialize(obj) == reference_serialize(obj)


def test_the_cells_reach_every_case():
    """Seeded hopf-category data with homs of dimensions 0, 1 and 2 has
    every case the generated data is meant to cover: factors of dimension
    0, a transposed antipode that is not square, explicit zeros, the
    shared object in several cells and its value held by another object."""
    labels = ("x", "y")
    dims = {("x", "x"): 2, ("x", "y"): 1, ("y", "x"): 2, ("y", "y"): 0}
    for seed, field in enumerate(FIELDS):
        cells = Cells(field, random.Random(seed), 1.0)
        a = fill(HopfCatData(field, labels, dims, *[None] * 5), cells, True)
        values = [v for t in (*a.mult.values(), *a.comult.values())
                  for p in t for q in p for v in q]
        assert sum(v is cells.shared for v in values) > 1
        assert any(v is not cells.shared and v == cells.shared
                   for v in values)
        assert any(v is not field.zero and not v for v in values)
        assert a.antipode[("x", "y")] and a.antipode[("y", "y")] == []
        assert serialize(a) == reference_serialize(a)
