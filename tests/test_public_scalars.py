"""Every scalar the library hands out is public: a ``Fraction`` over Q and an
``FpElement`` over GF(p), never an int or a float.

Inside the sparse engine and row reduction scalars are raw (``Field.raw``):
ints over GF(p), and over Q ints wherever the value is integral.  These tests
follow the values out of every path that starts from raw ones: parsed files,
transform outputs, antipode recovery, the canonical maps and Hopf modules,
packing, and the results of row reduction.
"""

import glob
import os
from fractions import Fraction

import pytest

from hopfcat import fixtures as fx
from hopfcat.core import HopfCatData, transform
from hopfcat.dual import DualHopfCatData, dualize, undualize
from hopfcat.duoidal import (BimonoidData, bimonoid_from_category,
                             category_from_bimonoid)
from hopfcat.fileformat import load, parse, serialize
from hopfcat.fundamental import (build_can, can_closed_inverse, can_inverse,
                                 canonical_hopf_module, coinvariants,
                                 dual_hopf_module, integrals,
                                 recover_antipode, regular_hopf_module)
from hopfcat.graded import GradedHopfData, from_graded
from hopfcat.groupoid import GroupoidData, linearize_groupoid
from hopfcat.linalg import LinMap, echelon_basis, invert, rank_kernel, solve
from hopfcat.scalars import GF, QQ, FpElement
from hopfcat.weak import pack, pack_dual

FIELDS = [QQ, GF(5)]


def leaves(t):
    """Every leaf of nested dicts, lists and tuples."""
    if isinstance(t, dict):
        for v in t.values():
            yield from leaves(v)
    elif isinstance(t, (list, tuple)):
        for v in t:
            yield from leaves(v)
    else:
        yield t


def data_scalars(obj):
    """The structure constants of a data object, and of its base."""
    for slot in obj.layout.slots:
        t = getattr(obj, slot.tag)
        if t is not None:
            yield from leaves(t)
    if hasattr(obj, "base"):
        yield from data_scalars(obj.base)


def assert_public(field, values):
    values = list(values)
    want = Fraction if field.p is None else FpElement
    assert values, "nothing to check"
    bad = {type(v).__name__ for v in values if type(v) is not want}
    assert not bad, f"{len(values)} scalars over {field}, some of type {bad}"


def assert_public_map(f):
    if f.rows and f.cols:       # hom objects of dimension 0 give empty maps
        assert_public(f.field, leaves(f.entries))


TRANSFORMS = {
    GroupoidData: [lambda g: linearize_groupoid(g, QQ),
                   lambda g: linearize_groupoid(g, GF(5))],
    GradedHopfData: [from_graded],
    HopfCatData: [dualize, pack, bimonoid_from_category]
    + [lambda a, m=m: transform(a, m)
       for m in ("opposite", "coopposite", "opcop")],
    DualHopfCatData: [undualize, pack_dual],
    BimonoidData: [category_from_bimonoid],
}


def outputs(obj):
    """Every transform output of obj that the transform accepts."""
    for op in TRANSFORMS.get(type(obj), []):
        try:
            yield op(obj)
        except ValueError:      # needs an antipode, or invalid input
            pass


def fixture_files(fixture_dir):
    paths = sorted(glob.glob(os.path.join(fixture_dir, "*.hc")))
    assert len(paths) == 35
    return paths


def test_parsed_fixtures_and_their_transforms(fixture_dir):
    checked = set()
    for path in fixture_files(fixture_dir):
        obj = load(path)
        if not isinstance(obj, GroupoidData):
            assert_public(QQ, data_scalars(obj))
        for out in outputs(obj):
            assert_public(out.field, data_scalars(out))
            checked.add(type(out).__name__)
            # outputs of outputs: undualize(dualize), pack_dual(dualize), ...
            for again in outputs(out):
                assert_public(again.field, data_scalars(again))
    assert checked == {"HopfCatData", "DualHopfCatData", "WeakHopfData",
                       "BimonoidData"}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_stock_structures_and_their_transforms(field):
    """Built, transformed, and written and parsed back."""
    graded = [fx.strongly_graded_z2(field), fx.zero_component_graded_z2(field)]
    for a in list(fx.hopf_fixtures(field).values()) + graded:
        for obj in [a] + list(outputs(a)):
            assert_public(field, data_scalars(obj))
            assert_public(field, data_scalars(parse(serialize(obj))))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_recovered_antipode(field):
    for a in fx.hopf_fixtures(field).values():
        assert_public(field, data_scalars(recover_antipode(a.strip_antipode())))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_hopf_modules_and_packing(field):
    stock = fx.hopf_fixtures(field)
    for a in stock.values():
        for z in a.objects:
            assert_public(field, data_scalars(canonical_hopf_module(a, z)))
        assert_public(field, data_scalars(dual_hopf_module(a)))
        assert_public(field, data_scalars(regular_hopf_module(a)))
        assert_public(field, data_scalars(pack(a)))
        assert_public(field, data_scalars(pack_dual(dualize(a))))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_canonical_maps_and_row_reduction(field):
    kernels = []
    for a in fx.hopf_fixtures(field).values():
        for z in a.objects:
            for x in a.objects:
                for y in a.objects:
                    can = build_can(a, z, x, y)
                    for f in (can, can_closed_inverse(a, z, x, y),
                              can_inverse(a, z, x, y), invert(can)):
                        assert_public_map(f)
                    assert_public_map(solve(can, a.identity_map(z, y).kron(
                        a.identity_map(x, y))))
        for x in a.objects:
            assert_public(field, leaves(integrals(a, x)))
            kernels += rank_kernel(a.mult_map(x, x, x))[1]
        assert_public(field, leaves(
            coinvariants(dual_hopf_module(a)).bases))
    assert_public(field, leaves(kernels))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_linear_algebra_on_integer_matrices(field):
    """Pivots of 1 keep the raw rows integral over Q, pivots of 2 and 3 do
    not: both kinds of row come out public."""
    def mat(rows):
        return LinMap(field, len(rows), len(rows[0]),
                      [[field.of(v) for v in r] for r in rows])
    a = mat([[2, 1, 0], [1, 1, 0], [0, 3, 1]])
    singular = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    b = mat([[1, 0], [0, 1], [4, 4]])
    assert_public_map(invert(a))
    assert_public_map(solve(a, b))
    rank, basis = rank_kernel(singular)
    assert rank == 2
    assert_public(field, leaves(basis))
    assert_public(field, leaves(echelon_basis(field, singular.entries)))
    # no rows: every column is free
    assert_public(field, leaves(rank_kernel(LinMap(field, 0, 2, []))[1]))
