"""Every re-indexing of structure constants on ``schema.reshaped`` against
the hand-written loops it replaced (``oracles.reference_*``).

Duals, opposites and coopposites, packing, the module↔comodule maps, the
free Hopf module and the module tensor product (a contraction through
``sparse.comult_mult`` since it left the dense route) must give equal data,
or raise the same error with the same message, on every hopf-category
fixture over Q and over GF(5), on ``unequal_dims_category`` (homs of
dimension 1, 2, 2 and 0, so a swapped leg shows), and on categories of those
dimensions and of dimensions 1, 2, 3 and 2 whose every constant is distinct,
antipode included.  The matrix builders of ``HopfCatData`` must equal
``oracles._bilinear_map`` / ``_split_map``.
"""

import itertools

import pytest

from oracles import (_bilinear_map, _split_map, dense_weak,
                     reference_comodule_to_module, reference_dualize,
                     reference_free_hopf_module,
                     reference_module_to_comodule, reference_pack,
                     reference_pack_dual, reference_tensor_modules,
                     reference_transform, reference_undualize)
from test_dense_differential import hopf_category_files
from test_fundamental_differential import over
from test_verifier_differential import unequal_dims_category

from hopfcat.core import HopfCatData, transform
from hopfcat.dual import dualize, undualize
from hopfcat.fileformat import load
from hopfcat.fundamental import free_hopf_module
from hopfcat.modules import (ModuleData, comodule_to_module,
                             module_to_comodule, regular_comodule,
                             regular_module, tensor_modules, unit_module)
from hopfcat.scalars import GF, QQ
from hopfcat.weak import pack, pack_dual


def outcome(fn, *args):
    """What ``fn`` gives: its result, or the error's type and message."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


def same(new, old, *args):
    got = outcome(new, *args)
    assert got == outcome(old, *args), (new.__name__, args)
    return got


def counting(field):
    """Distinct scalars 1, 2, 3, ..., with every fifth one zero."""
    for n in itertools.count(1):
        yield field.zero if n % 5 == 0 else field.of(n)


def filled(values, shape):
    if not shape:
        return next(values)
    return [filled(values, shape[1:]) for _ in range(shape[0])]


# the dimensions of ``unequal_dims_category``, and ones with no zero
UNEQUAL_DIMS = {("x", "x"): 1, ("y", "y"): 2, ("x", "y"): 2, ("y", "x"): 0}
NONZERO_DIMS = {("x", "x"): 1, ("y", "y"): 2, ("x", "y"): 2, ("y", "x"): 3}


def distinct_constants(field, dims=UNEQUAL_DIMS) -> HopfCatData:
    """A category on x and y with hom dimensions ``dims`` and every
    constant distinct: no law holds, but every re-indexing is seen."""
    X, v = ("x", "y"), counting(field)
    pairs = list(itertools.product(X, repeat=2))

    def d(x, y):
        return dims[(x, y)]
    return HopfCatData(
        field, X, dict(dims),
        {(x, y, z): filled(v, (d(x, y), d(y, z), d(x, z)))
         for x, y, z in itertools.product(X, repeat=3)},
        {x: filled(v, (d(x, x),)) for x in X},
        {(x, y): filled(v, (d(x, y),) * 3) for x, y in pairs},
        {(x, y): filled(v, (d(x, y),)) for x, y in pairs},
        {(x, y): filled(v, (d(y, x), d(x, y))) for x, y in pairs})


def distinct_module(a: HopfCatData, side: str) -> ModuleData:
    """A module of its own dimensions 1, 2, 0, 3 with distinct constants."""
    X, v = a.objects, counting(a.field)
    dims = dict(zip(itertools.product(X, repeat=2), itertools.cycle(
        (1, 2, 0, 3))))
    act = {}
    for x, y, z in itertools.product(X, repeat=3):
        left = (a.dim(x, y), dims[(y, z)]) if side == "left" \
            else (dims[(x, y)], a.dim(y, z))
        act[(x, y, z)] = filled(v, (*left, dims[(x, z)]))
    return ModuleData(a, side, dims, act)


@pytest.fixture(scope="module")
def inputs(fixture_dir):
    files = [load(path) for path in hopf_category_files(fixture_dir)]
    assert len(files) == 20
    assert any(0 in a.dims.values() for a in files)    # disjoint.hc
    return (files + [over(a, GF(5)) for a in files]
            + [unequal_dims_category(f) for f in (QQ, GF(5))]
            + [distinct_constants(f, dims) for f in (QQ, GF(5))
               for dims in (UNEQUAL_DIMS, NONZERO_DIMS)])


def test_duals_and_opposites(inputs):
    for a in inputs:
        c = same(dualize, reference_dualize, a)
        assert same(undualize, reference_undualize, c) == a
        for mode in ("opposite", "coopposite", "opcop", "other"):
            same(transform, reference_transform, a, mode)


def test_singular_antipode_messages():
    a = distinct_constants(QQ)       # S(x,y) is 0x2: nothing inverts
    for mode in ("opposite", "coopposite"):
        err, msg = same(transform, reference_transform, a, mode)
        assert msg.endswith(f"the {mode} antipode needs its inverse")


def test_packing(inputs):
    # packing stores sparse dicts, the loops built nested lists
    for a in inputs:
        same(lambda a: dense_weak(pack(a)), reference_pack, a)
        same(lambda c: dense_weak(pack_dual(c)), reference_pack_dual,
             reference_dualize(a))


def test_module_comodule_maps(inputs):
    for a in inputs:
        for m in (regular_module(a, "right"), regular_module(a, "left"),
                  distinct_module(a, "right")):
            same(module_to_comodule, reference_module_to_comodule, m)
        for c in (reference_dualize(a), reference_dualize(
                distinct_constants(a.field))):
            m = reference_module_to_comodule(distinct_module(
                reference_undualize(c), "right"))
            for comodule in (regular_comodule(c), m):
                same(comodule_to_module, reference_comodule_to_module,
                     comodule)


def test_free_and_tensor_modules(inputs):
    for a in inputs:
        ndims = {x: i % 3 for i, x in enumerate(a.objects)}
        same(free_hopf_module, reference_free_hopf_module, a, ndims)
        for side in ("right", "left"):
            m, d = regular_module(a, side), distinct_module(a, side)
            for n in (unit_module(a, side), d):
                same(tensor_modules, reference_tensor_modules, m, n)
                same(tensor_modules, reference_tensor_modules, n, m)
        same(tensor_modules, reference_tensor_modules,
             regular_module(a, "right"), unit_module(a, "left"))


def test_matrix_builders(inputs):
    for a in inputs:
        f, X, d = a.field, a.objects, a.dim
        for x, y in itertools.product(X, repeat=2):
            assert a.comult_map(x, y) == _split_map(
                f, a.comult[(x, y)], d(x, y), d(x, y), d(x, y))
            for z in X:
                assert a.mult_map(x, y, z) == _bilinear_map(
                    f, a.mult[(x, y, z)], d(x, y), d(y, z), d(x, z))
