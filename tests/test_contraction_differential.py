"""Strictness, coinvariants and the freeness equivalence on raw rows and
sparse columns against the dense compositions they replaced
(``oracles.dense_check_strictness``, ``dense_coinvariants`` and
``dense_check_equivalence``).

Both must give the same report records, the same coinvariant bases, or the
same error with the same message.  Strictness is compared on every
hopf-category fixture over Q and over GF(5), and on every zeroed or bumped
composition coefficient of disjoint, graded-z2-zero, kz2 and pair2, some of
whose ranks fall short.  Coinvariants and the equivalence are compared on
the regular, canonical (every z), free and dual Hopf modules of every
fixture with an antipode over Q and GF(5), of kZ/3 and the Taft algebra
over GF(2^61-1) after a change of basis, and of the function algebra on Z/3,
whose unit is no basis vector; on bases without an antipode or
failing level 'hopf'; and on the canonical Hopf modules of kz2 and pair2
and the regular one of taft4 with one action or coaction coefficient
bumped, whose twisted coaction can leave the coinvariants.
"""

import pytest

from oracles import (dense_check_equivalence, dense_check_strictness,
                     dense_coinvariants)
from test_dense_differential import (BIG, doubled_or_one,
                                     hopf_category_files, mutate, positions,
                                     rebased)
from test_fundamental_differential import over

from hopfcat import fixtures as fx
from hopfcat.core import check_strictness, verify_structure
from hopfcat.fileformat import load
from hopfcat.fundamental import (HopfModuleData, canonical_hopf_module,
                                 check_equivalence, coinvariants,
                                 dual_hopf_module, free_hopf_module,
                                 regular_hopf_module)
from hopfcat.report import (InternalInvariantError, PreconditionError,
                            Report)
from hopfcat.scalars import GF, QQ


def outcome(fn, *args, **kwargs):
    """The records of a report, or the error's type and message."""
    try:
        return [it.record() for it in fn(*args, **kwargs).items]
    except (PreconditionError, InternalInvariantError) as e:
        return type(e), str(e)


@pytest.fixture(scope="module")
def fixture_files(fixture_dir):
    return [load(path) for path in hopf_category_files(fixture_dir)]


@pytest.mark.parametrize("field", [None, GF(5)])
def test_strictness_on_every_fixture(fixture_files, field):
    assert len(fixture_files) == 20
    for a in fixture_files:
        if field is not None:
            a = over(a, field)
        assert outcome(check_strictness, a) \
            == outcome(dense_check_strictness, a)


def test_strictness_of_every_composition_mutant(hopf_fixtures):
    deficient = 0
    for name in ("disjoint", "graded-z2-zero", "kz2", "pair2"):
        a = hopf_fixtures[name]
        for edit in (doubled_or_one(a.field), lambda v: a.field.zero):
            for slot in positions(a):
                if slot[0] != "mult":
                    continue
                mut = mutate(a, [slot + (edit,)])
                assert outcome(check_strictness, mut) \
                    == outcome(dense_check_strictness, mut), slot
                # an empty report passes: the ranks of invalid data too
                new = outcome(check_strictness, mut, base=Report())
                assert new == outcome(dense_check_strictness, mut,
                                      base=Report()), slot
                deficient += not all(r["ok"] for r in new)
    assert deficient > 0


def hopf_modules(a):
    """The regular, canonical, free and dual Hopf modules of ``a``."""
    yield regular_hopf_module(a)
    for z in a.objects:
        yield canonical_hopf_module(a, z)
    yield free_hopf_module(a, {x: i % 3 + 1
                               for i, x in enumerate(a.objects)})
    yield dual_hopf_module(a)


def assert_same_equivalence(m: HopfModuleData):
    assert coinvariants(m) == dense_coinvariants(m)
    assert outcome(check_equivalence, m) \
        == outcome(dense_check_equivalence, m)


@pytest.mark.parametrize("field", [None, GF(5)])
def test_every_hopf_module_of_every_fixture(fixture_files, field):
    compared = 0
    for a in fixture_files:
        if field is not None:
            a = over(a, field)
        if a.antipode is None:
            m = regular_hopf_module(a)
            assert coinvariants(m) == dense_coinvariants(m)
            assert outcome(check_equivalence, m) \
                == outcome(dense_check_equivalence, m) \
                == (PreconditionError,
                    "the freeness equivalence needs an antipode")
            continue
        for m in hopf_modules(a):
            assert_same_equivalence(m)
            compared += 1
    assert compared > 0


@pytest.mark.parametrize("name, seed", [("kz3", 21), ("taft4", 22)])
def test_dense_constants_over_a_large_prime(name, seed):
    a = rebased(fx.taft_four_dim(BIG) if name == "taft4"
                else fx.group_algebra(BIG, 3), seed)
    for m in hopf_modules(a):
        assert_same_equivalence(m)
        assert check_equivalence(m).overall


def function_algebra(field, n: int):
    """k^(Z/n), the dual of kZ/n, on the indicator basis.  Its unit
    (1, ..., 1) is no basis vector, unlike those of the fixtures and of the
    rebased algebras, so the unit and counit of a free module differ."""
    zero, one = field.zero, field.one
    mult = [[[one if i == j == k else zero for k in range(n)]
             for j in range(n)] for i in range(n)]
    comult = [[[one if i == (j + k) % n else zero for k in range(n)]
               for j in range(n)] for i in range(n)]
    antipode = [[one if j == (-i) % n else zero for i in range(n)]
                for j in range(n)]
    return fx.singleton_hopf(field, n, mult, [one] * n, comult,
                             [one if i == 0 else zero for i in range(n)],
                             antipode)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_an_algebra_whose_unit_is_no_basis_vector(field):
    a = function_algebra(field, 3)
    assert verify_structure(a).overall
    for m in hopf_modules(a):
        assert_same_equivalence(m)
        assert check_equivalence(m).overall


def test_a_base_failing_level_hopf(hopf_fixtures):
    a = hopf_fixtures["taft4"]
    bad = mutate(a, [next(s for s in positions(a) if s[0] == "antipode")
                     + (doubled_or_one(a.field),)])
    m = regular_hopf_module(bad)
    got = outcome(check_equivalence, m)
    assert got[0] is PreconditionError
    assert got == outcome(dense_check_equivalence, m)


@pytest.mark.parametrize("name", ["kz2", "pair2", "taft4"])
def test_every_single_coefficient_mutant_of_a_hopf_module(hopf_fixtures,
                                                          name):
    a = hopf_fixtures[name]
    bump = doubled_or_one(a.field)
    m = (regular_hopf_module(a) if name == "taft4"
         else canonical_hopf_module(a, a.objects[0]))
    kinds = set()
    for tag in ("action", "coaction"):
        for key, t in getattr(m, tag).items():
            for i, slab in enumerate(t):
                for j, fibre in enumerate(slab):
                    for k in range(len(fibre)):
                        mut = HopfModuleData(a, m.dims, dict(m.action),
                                             dict(m.coaction))
                        table = getattr(mut, tag)
                        table[key] = [[list(f) for f in s] for s in t]
                        table[key][i][j][k] = bump(t[i][j][k])
                        got = outcome(check_equivalence, mut)
                        assert got == outcome(dense_check_equivalence, mut)
                        kinds.add(got[0] if isinstance(got, tuple)
                                  else all(r["ok"] for r in got))
    # the mutants reach the invariant error and failing records
    assert InternalInvariantError in kinds and False in kinds
