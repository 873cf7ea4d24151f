"""The per-basis verifier against the dense matrix verifier it replaced.

Both must produce the same report records (axiom, objects, verdict, first
witness, residual, failure count) item for item, on passing and failing
data alike.
"""

import glob
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from mutants import mutate, slots
from oracles import dense_antipode_theorems, dense_verify_structure

from hopfcat import fixtures as fx
from hopfcat.core import (LEVELS, HopfCatData, check_antipode_theorems,
                          verify_structure)
from hopfcat.fileformat import load
from hopfcat.linalg import LinMap, invert
from hopfcat.report import PreconditionError
from hopfcat.scalars import GF, QQ


def records(rep):
    return [it.record() for it in rep.items]


def outcome(fn, a, *args):
    """The records of a report, or the exception type it raised."""
    try:
        return records(fn(a, *args))
    except PreconditionError as e:
        return type(e)


def assert_same_reports(a: HopfCatData, levels=None):
    if levels is None:
        levels = LEVELS if a.has_antipode else LEVELS[:2]
    for level in levels:
        assert records(verify_structure(a, level)) \
            == records(dense_verify_structure(a, level)), level
    if a.has_antipode:
        assert outcome(check_antipode_theorems, a) \
            == outcome(dense_antipode_theorems, a)


def hopf_category_files(fixture_dir):
    out = []
    for path in sorted(glob.glob(os.path.join(fixture_dir, "*.hc"))):
        with open(path) as fh:
            if "kind hopf-category\n" in fh.read():
                out.append(path)
    return out


def test_every_hopf_category_fixture_at_every_level(fixture_dir):
    paths = hopf_category_files(fixture_dir)
    assert len(paths) == 20
    for path in paths:
        assert_same_reports(load(path))


def positions(a: HopfCatData):
    """Every structure-constant slot as (tensor name, key, index path)."""
    X = a.objects
    for x in X:
        for y in X:
            for z in X:
                for i in range(a.dim(x, y)):
                    for j in range(a.dim(y, z)):
                        for k in range(a.dim(x, z)):
                            yield "mult", (x, y, z), (i, j, k)
    for x in X:
        for i in range(a.dim(x, x)):
            yield "unit", x, (i,)
    for x in X:
        for y in X:
            d = a.dim(x, y)
            for i in range(d):
                for j in range(d):
                    for k in range(d):
                        yield "comult", (x, y), (i, j, k)
                yield "counit", (x, y), (i,)
            if a.antipode is not None:
                for r in range(a.dim(y, x)):
                    for c in range(d):
                        yield "antipode", (x, y), (r, c)


def doubled_or_one(field):
    return lambda v: v * 2 if v else field.one


@pytest.mark.parametrize("name", ["kz2", "kz3", "pair2"])
def test_every_single_coefficient_mutant(hopf_fixtures, name):
    a = hopf_fixtures[name]
    bump = doubled_or_one(a.field)
    for name_, key, path in positions(a):
        mut = mutate(a, [(name_, key, path, bump)])
        assert_same_reports(mut, levels=("hopf",))
        # no coefficient can change without breaking an axiom
        assert not verify_structure(mut, "hopf").overall, (name_, key, path)


@pytest.mark.parametrize("name", ["pair3", "disjoint", "graded-z2-strong"])
def test_every_single_coefficient_mutant_of_repeated_tensors(hopf_fixtures,
                                                             name):
    # these repeat equal tensors over many object tuples (the lift shares
    # one per degree), so each mutant is an instance that differs from
    # equal siblings in exactly one constant
    a = hopf_fixtures[name]
    bump = doubled_or_one(a.field)
    for name_, key, path in positions(a):
        assert_same_reports(mutate(a, [(name_, key, path, bump)]),
                            levels=("hopf",))


# the families whose sides read each tensor
READS = {
    "mult": {"assoc", "unit-left", "unit-right", "comult-mult",
             "counit-mult", "antipode-left", "antipode-right"},
    "unit": {"unit-left", "unit-right", "comult-unit", "counit-unit",
             "antipode-left", "antipode-right"},
    "comult": {"coassoc", "counit-left", "counit-right", "comult-mult",
               "comult-unit", "antipode-left", "antipode-right"},
    "counit": {"counit-left", "counit-right", "counit-mult", "counit-unit",
               "antipode-left", "antipode-right"},
    "antipode": {"antipode-left", "antipode-right"},
}


def test_every_mutant_of_a_verifying_fixture_fails_a_family_that_reads_it(
        fixture_dir):
    """The mutation net: every doubled-or-one single-coefficient mutant of
    each hopf-category fixture that verifies (at hopf, or at semihopf
    without an antipode) fails, and a family that reads the changed tensor
    is among its failures."""
    inputs = mutants = 0
    for path in hopf_category_files(fixture_dir):
        a = load(path)
        level = "hopf" if a.has_antipode else "semihopf"
        if not verify_structure(a, level).overall:
            continue
        inputs += 1
        for slot in slots(a, READS):
            mutants += 1
            rep = verify_structure(
                mutate(a, [slot + (doubled_or_one(a.field),)]), level)
            failed = {it.axiom for it in rep.failed()}
            assert failed & READS[slot[0]], (path, slot, sorted(failed))
    assert (inputs, mutants) == (17, 737)


TAFT4 = {field: fx.taft_four_dim(field) for field in (QQ, GF(5))}
TAFT4_POSITIONS = list(positions(TAFT4[QQ]))


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from([QQ, GF(5)]),
       edits=st.lists(st.tuples(st.integers(0, len(TAFT4_POSITIONS) - 1),
                                st.integers(-2, 3), st.sampled_from([1, 2])),
                      min_size=1, max_size=3))
def test_taft4_mutants(field, edits):
    a = TAFT4[field]
    mut = mutate(a, [
        TAFT4_POSITIONS[pos] + (lambda v, n=n, d=d: field.of(n) / field.of(d),)
        for pos, n, d in edits])
    assert_same_reports(mut)



# Over a large prime, in a basis where every structure constant is a full-size
# residue, so that sums and products in the engine leave [0, p) and must be
# reduced before the two sides are compared.

BIG = GF(2**61 - 1)


def rebased(a: HopfCatData, seed: int) -> HopfCatData:
    """A one-object algebra in the basis f_x = sum_i P[i][x] e_i, for a
    seeded upper unitriangular P whose entries above the diagonal are
    anywhere in the field: m' = P^-1 m (P⊗P), Δ' = (P^-1⊗P^-1) Δ P,
    ε' = ε P, 1' = P^-1 1 and S' = P^-1 S P."""
    rng = random.Random(seed)
    f, d = a.field, a.dim("*", "*")
    p = LinMap(f, d, d, [[f.one if i == j else
                          f.of(rng.randrange(1, f.p)) if j > i else f.zero
                          for j in range(d)] for i in range(d)])
    q = invert(p)
    m = q @ a.mult_map("*", "*", "*") @ p.kron(p)
    delta = q.kron(q) @ a.comult_map("*", "*") @ p
    unit = q @ a.unit_map("*")
    s = q @ a.antipode_map("*", "*") @ p
    return fx.singleton_hopf(
        f, d,
        [[[m.entries[k][i * d + j] for k in range(d)] for j in range(d)]
         for i in range(d)],
        [unit.entries[i][0] for i in range(d)],
        [[[delta.entries[j * d + k][i] for k in range(d)] for j in range(d)]
         for i in range(d)],
        list((a.counit_map("*", "*") @ p).entries[0]),
        [list(r) for r in s.entries])


REBASED = {name: rebased(a, seed) for seed, (name, a) in enumerate([
    ("kz2", fx.group_algebra(BIG, 2)), ("kz3", fx.group_algebra(BIG, 3)),
    ("kz4", fx.group_algebra(BIG, 4)), ("taft4", fx.taft_four_dim(BIG))])}


@pytest.mark.parametrize("name", sorted(REBASED))
def test_dense_constants_over_a_large_prime(name):
    a = REBASED[name]
    d = a.dim("*", "*")
    # dense: products and coproducts have many full-size coefficients
    for t in (a.mult[("*", "*", "*")], a.comult[("*", "*")]):
        assert sum(v.value >= 2**32 for plane in t for row in plane
                   for v in row) >= d * (d - 1)
    assert verify_structure(a).overall
    assert_same_reports(a)


def wrapping_edits(field):
    """Edits whose new coefficient, and so the residual it leaves, wraps
    around p: set to p-1, subtract one, negate."""
    minus_one = field.of(field.p - 1)
    return [lambda v: minus_one, lambda v: v + minus_one, lambda v: -v]


def test_every_wrapping_mutant_of_rebased_kz2():
    a = REBASED["kz2"]
    failing = 0
    for slot in positions(a):
        for edit in wrapping_edits(BIG):
            mut = mutate(a, [slot + (edit,)])
            assert_same_reports(mut, levels=("hopf",))
            failing += not verify_structure(mut, "hopf").overall
    assert failing > 0


TAFT4_BIG_POSITIONS = list(positions(REBASED["taft4"]))


@settings(max_examples=40, deadline=None)
@given(edits=st.lists(st.tuples(
    st.integers(0, len(TAFT4_BIG_POSITIONS) - 1), st.integers(0, 2)),
    min_size=1, max_size=2))
def test_rebased_taft4_wrapping_mutants(edits):
    a = REBASED["taft4"]
    mut = mutate(a, [TAFT4_BIG_POSITIONS[pos] + (wrapping_edits(BIG)[e],)
                     for pos, e in edits])
    assert_same_reports(mut, levels=("hopf",))
