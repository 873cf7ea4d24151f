"""``fundamental``'s contractions against the dense compositions they
replaced (``oracles.dense_*``).

Both must give equal canonical maps, closed-form inverses, rank tables,
recovered antipodes, ``RecoveryFailure`` witnesses, the same
``PreconditionError``, and equal canonical and dual Hopf modules: on every
hopf-category fixture over Q and over GF(5), on group algebras and the Taft
algebra over GF(2^61-1) after a seeded unitriangular change of basis (dense
constants), on a two-object category with two-dimensional homs, and on
every single-coefficient mutant of the stripped kz2, kz3, pair2 and taft4.
Recovery must also verify its input once and end with the report that
``verify_structure`` gives its result at level 'hopf'.
"""

import pytest

from oracles import (dense_build_can, dense_can_closed_inverse,
                     dense_can_rank_table, dense_canonical_hopf_module,
                     dense_dual_hopf_module, dense_recover_antipode)
from test_dense_differential import (BIG, doubled_or_one,
                                     hopf_category_files, mutate, positions,
                                     rebased)

from hopfcat import fixtures as fx
from hopfcat import fundamental
from hopfcat.core import (HopfCatData, MissingAntipodeError,
                          _check_antipode_laws, verify_structure)
from hopfcat.fileformat import load
from hopfcat.fundamental import (AntipodeRecoveryError, build_can,
                                 can_closed_inverse, can_rank_table,
                                 canonical_hopf_module, dual_hopf_module,
                                 recover_antipode)
from hopfcat.graded import GradedHopfData, GroupTable, from_graded
from hopfcat.report import PreconditionError
from hopfcat.scalars import GF, QQ


def records(rep):
    return [it.record() for it in rep.items]


def recovery(fn, a):
    """What recovery gives: the completed data or the RecoveryFailure, or
    the error it raised with what the error carries."""
    try:
        return fn(a)
    except PreconditionError as e:
        return PreconditionError, str(e)
    except AntipodeRecoveryError as e:
        return (AntipodeRecoveryError, str(e), records(e.verify_report),
                e.can_ranks)


def triples(a):
    X = a.objects
    return [(z, x, y) for z in X for x in X for y in X]


def assert_same_can_and_recovery(a: HopfCatData):
    for t in triples(a):
        assert build_can(a, *t) == dense_build_can(a, *t), t
        if a.antipode is not None:
            assert can_closed_inverse(a, *t) \
                == dense_can_closed_inverse(a, *t), t
    assert can_rank_table(a) == dense_can_rank_table(a)
    stripped = a.strip_antipode()
    assert recovery(recover_antipode, stripped) \
        == recovery(dense_recover_antipode, stripped)


def assert_same_modules(a: HopfCatData):
    for z in a.objects:
        assert canonical_hopf_module(a, z) == dense_canonical_hopf_module(a, z)
    if a.antipode is None:
        for fn in (dual_hopf_module, dense_dual_hopf_module):
            with pytest.raises(MissingAntipodeError):
                fn(a)
    else:
        assert dual_hopf_module(a) == dense_dual_hopf_module(a)


def over(a: HopfCatData, field) -> HopfCatData:
    """The same structure constants, read in another field."""
    def conv(v):
        if isinstance(v, list):
            return [conv(w) for w in v]
        return field.of(v.numerator) / field.of(v.denominator)

    def table(t):
        return None if t is None else {k: conv(v) for k, v in t.items()}
    return HopfCatData(field, a.objects, dict(a.dims), table(a.mult),
                       table(a.unit), table(a.comult), table(a.counit),
                       table(a.antipode))


@pytest.fixture(scope="module")
def fixture_files(fixture_dir):
    return [load(path) for path in hopf_category_files(fixture_dir)]


@pytest.mark.parametrize("field", [None, GF(5)])
def test_every_fixture(fixture_files, field):
    assert len(fixture_files) == 20
    for a in fixture_files:
        if field is not None:
            a = over(a, field)
        assert_same_can_and_recovery(a)
        assert_same_modules(a)


@pytest.mark.parametrize("name, seed", [("kz3", 11), ("kz4", 12),
                                        ("taft4", 13)])
def test_dense_constants_over_a_large_prime(name, seed):
    base = (fx.taft_four_dim(BIG) if name == "taft4"
            else fx.group_algebra(BIG, int(name[2:])))
    a = rebased(base, seed)
    assert_same_can_and_recovery(a)
    assert_same_modules(a)
    assert recover_antipode(a.strip_antipode()) == a


def z4_graded_by_z2(field) -> HopfCatData:
    """kZ/4 graded by Z/2 (A_e spanned by g0, g2 and A_g by g1, g3), lifted:
    two objects with two-dimensional homs whose composition tensors differ
    from one object triple to another, unlike those of the fixtures."""
    one, zero = field.one, field.zero

    def deg(k):
        return "eg"[k % 2]

    def zeros(*shape):
        if len(shape) == 1:
            return [zero] * shape[0]
        return [zeros(*shape[1:]) for _ in range(shape[0])]
    mult = {(s, t): zeros(2, 2, 2) for s in "eg" for t in "eg"}
    comult = {s: zeros(2, 2, 2) for s in "eg"}
    antipode = {s: zeros(2, 2) for s in "eg"}
    for k in range(4):
        comult[deg(k)][k // 2][k // 2][k // 2] = one
        antipode[deg(k)][(-k) % 4 // 2][k // 2] = one
        for j in range(4):
            mult[(deg(k), deg(j))][k // 2][j // 2][(k + j) % 4 // 2] = one
    group = GroupTable(("e", "g"), {(s, t): "eg"[(s == "g") ^ (t == "g")]
                                    for s in "eg" for t in "eg"})
    return from_graded(GradedHopfData(
        field, group, {"e": 2, "g": 2}, mult, [one, zero], comult,
        {s: [one, one] for s in "eg"}, antipode))


@pytest.mark.parametrize("field", [QQ, BIG])
def test_two_objects_with_two_dimensional_homs(field):
    a = z4_graded_by_z2(field)
    assert verify_structure(a).overall
    assert len({str(t) for t in a.mult.values()}) > 1
    assert_same_can_and_recovery(a)
    assert_same_modules(a)


def test_recovery_verifies_once_and_reports_level_hopf(hopf_fixtures,
                                                       monkeypatch):
    calls, reports = [], []

    def verify(b, level):
        calls.append(level)
        return verify_structure(b, level)

    def laws(b, rep):
        reports.append(_check_antipode_laws(b, rep))
        return reports[-1]
    monkeypatch.setattr(fundamental, "verify_structure", verify)
    monkeypatch.setattr(fundamental, "_check_antipode_laws", laws)
    out = recover_antipode(hopf_fixtures["taft4"].strip_antipode())
    assert calls == ["semihopf"]
    assert records(reports[0]) == records(verify_structure(out, "hopf"))


@pytest.mark.parametrize("name", ["kz2", "kz3", "pair2", "taft4"])
def test_every_single_coefficient_mutant_of_the_stripped_data(
        hopf_fixtures, name):
    # every one of them fails level 'semihopf', so recovery compares the
    # PreconditionError; the can maps and rank tables need no valid input
    a = hopf_fixtures[name].strip_antipode()
    bump = doubled_or_one(a.field)
    for slot in positions(a):
        assert_same_can_and_recovery(mutate(a, [slot + (bump,)]))


@pytest.mark.parametrize("name", ["kz3", "pair3", "taft4", "graded-z2-zero"])
def test_antipode_laws_complete_a_semihopf_report(hopf_fixtures, name):
    a = hopf_fixtures[name]
    assert records(_check_antipode_laws(a, verify_structure(a, "semihopf"))) \
        == records(verify_structure(a, "hopf"))
    # and on data whose antipode fails the laws
    bad = mutate(a, [next(s for s in positions(a) if s[0] == "antipode")
                     + (doubled_or_one(a.field),)])
    rep = _check_antipode_laws(bad, verify_structure(bad, "semihopf"))
    assert not rep.overall
    assert records(rep) == records(verify_structure(bad, "hopf"))
