"""The dense kernels against the bodies they replaced.

``sparse.comult_mult``, ``antipode_law`` and ``coassoc`` and
``core._anticomult`` must give the same reduced columns as
``oracles.reference_comult_mult``, ``reference_antipode_law``,
``reference_coassoc`` and ``reference_anticomult`` on every instance that
``verify_structure`` at level 'hopf' and ``check_antipode_theorems`` hand
them: on every hopf-category fixture over Q and over GF(5), on kZ/3–kZ/6
and the Taft algebra over GF(2^61-1) after a change of basis that makes
their constants dense, and on every single-coefficient mutant of kz2 and
pair2 over Q and GF(5) and of taft4 over GF(5).  ``linalg._rref`` on raw
rows must give the rows and pivots of ``oracles.reference_rref`` on public
scalars, lifted, and ``report.residual`` the text of
``oracles.reference_residual``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (reference_anticomult, reference_antipode_law,
                     reference_coassoc, reference_comult_mult,
                     reference_residual, reference_rref)
from test_dense_differential import (BIG, doubled_or_one,
                                     hopf_category_files, mutate, positions,
                                     rebased)
from test_fundamental_differential import over

from hopfcat import core
from hopfcat import fixtures as fx
from hopfcat import sparse as sp
from hopfcat.fileformat import load
from hopfcat.linalg import _rref
from hopfcat.report import residual
from hopfcat.scalars import GF, QQ

REFERENCES = {"comult_mult": (sp, reference_comult_mult),
              "antipode_law": (sp, reference_antipode_law),
              "coassoc": (sp, reference_coassoc),
              "_anticomult": (core, reference_anticomult)}


def instances(a) -> list:
    """Every (name, args) with which verifying ``a`` at level 'hopf' and
    checking its antipode theorems evaluate one of the kernels.  The
    theorems are given the verifier's report as their base even when it
    fails, so that a mutant reaches ``_anticomult`` too."""
    calls = []

    def recording(name, law):
        def wrapped(*args):
            calls.append((name, args))
            return law(*args)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for name, (module, _) in REFERENCES.items():
            mp.setattr(module, name, recording(name, getattr(module, name)))
        base = core.verify_structure(a, "hopf" if a.has_antipode
                                     else "semihopf")
        if a.has_antipode:
            core.check_antipode_theorems(a, base)
    return calls


def reduced(pair) -> list:
    return [(side.rows, [side.field.reduce(col) for col in side.columns])
            for side in pair]


def assert_same_kernels(a) -> set:
    """Hold every kernel instance of ``a`` to its reference; the names of
    the kernels reached."""
    calls = instances(a)
    for name, args in calls:
        module, reference = REFERENCES[name]
        assert reduced(getattr(module, name)(*args)) \
            == reduced(reference(*args)), name
    return {name for name, _ in calls}


@pytest.fixture(scope="module")
def fixture_files(fixture_dir):
    return [load(path) for path in hopf_category_files(fixture_dir)]


@pytest.mark.parametrize("field", [None, GF(5)])
def test_every_fixture(fixture_files, field):
    assert len(fixture_files) == 20
    reached = set()
    for a in fixture_files:
        reached |= assert_same_kernels(a if field is None else over(a, field))
    assert reached == set(REFERENCES)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_kz_over_a_large_prime_with_dense_constants(n):
    assert assert_same_kernels(rebased(fx.group_algebra(BIG, n), n)) \
        == set(REFERENCES)


def test_taft4_over_a_large_prime_with_dense_constants():
    assert assert_same_kernels(rebased(fx.taft_four_dim(BIG), 4)) \
        == set(REFERENCES)


@pytest.mark.parametrize("name, field", [
    ("kz2", QQ), ("kz2", GF(5)), ("pair2", QQ), ("pair2", GF(5)),
    ("taft4", GF(5))])
def test_every_single_coefficient_mutant(hopf_fixtures, name, field):
    a = hopf_fixtures[name]
    if field is not QQ:
        a = over(a, field)
    bump = doubled_or_one(field)
    for slot in positions(a):
        assert assert_same_kernels(mutate(a, [slot + (bump,)])) \
            == set(REFERENCES)


# -- row reduction on raw rows against the one on public scalars ---------------

def scalars(field):
    """Raw scalars: over GF(p) ints anywhere, so that some need reducing
    first; over Q ints and fractions."""
    if field is QQ:
        return st.fractions(min_value=-4, max_value=4, max_denominator=4) \
            .map(lambda v: v.numerator if v.denominator == 1 else v)
    return st.integers(min_value=0, max_value=4) \
        | st.integers(min_value=-3 * field.p, max_value=3 * field.p)


def raw_rows(field):
    """Rows of one length of raw scalars.  Small values and whole zero rows
    give rank-deficient matrices."""
    elem = scalars(field)
    cols = st.integers(min_value=0, max_value=6)
    return st.tuples(st.integers(min_value=1, max_value=6), cols).flatmap(
        lambda shape: st.lists(
            st.lists(elem, min_size=shape[1], max_size=shape[1])
            | st.just([0] * shape[1]),
            min_size=shape[0], max_size=shape[0]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(5), GF(2**61 - 1)]).flatmap(
    lambda field: st.tuples(st.just(field), raw_rows(field))))
@example((GF(5), [[0, 0, 0], [0, 0, 0]]))
@example((QQ, [[1, 2, 3, 4, 5, 6, 7], [2, 4, 6, 8, 10, 12, 14]]))
@example((GF(5), [[1], [2], [3], [4], [0], [6], [7]]))
def test_rref_matches_the_reference(field_rows):
    field, rows = field_rows
    out, pivots = _rref(field, rows)
    ref, ref_pivots = reference_rref(field,
                                     [[field.of(v) for v in r] for r in rows])
    assert pivots == ref_pivots
    assert [[field.lift(v) for v in r] for r in out] == ref
    if field.p is not None:
        assert all(0 <= v < field.p for r in out for v in r)


# -- the residual of two columns against the one that always subtracts ---------

@pytest.mark.parametrize("field", [QQ, GF(5), GF(2**61 - 1)])
def test_residual_matches_the_reference(field):
    """Pairs of columns of raw scalars over four keys: unrelated ones, and
    a left side against a right one whose values differ from it by
    multiples of p (over Q, not at all), as the two sides of a passing
    check do, then perhaps in one value by one, or by one key that holds a
    multiple of p (an explicit zero)."""
    rng = random.Random(5)
    p = field.p or 0

    def scalar():
        if field is QQ:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return rng.choice([rng.randint(0, 4), rng.randint(-3 * p, 3 * p)])

    def column():
        return {k: scalar() for k in range(4) if rng.random() < 0.6}

    for _ in range(300):
        lhs = column()
        near = {k: v + rng.randint(-2, 2) * p for k, v in lhs.items()}
        k, edit = rng.randrange(4), rng.randrange(3)
        if edit == 1:
            near[k] = near.get(k, 0) + 1
        elif edit == 2 and k not in near:
            near[k] = rng.randint(-2, 2) * p
        for rhs in (column(), near, dict(lhs)):
            assert residual(field, lhs, rhs) \
                == reference_residual(field, lhs, rhs)
