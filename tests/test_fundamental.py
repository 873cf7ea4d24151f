import random
from fractions import Fraction

import pytest

from oracles import _split_map

from hopfcat.core import verify_structure
from hopfcat.fixtures import group_algebra, idempotent_monoid_bialgebra
from hopfcat.fundamental import (RecoveryFailure, build_can, can_inverse,
                                 can_rank_table, canonical_hopf_module,
                                 check_antipode_bijective, check_equivalence,
                                 coinvariants, dual_hopf_module,
                                 free_hopf_module, integrals,
                                 recover_antipode, regular_hopf_module,
                                 verify_hopf_module)
from hopfcat.linalg import LinMap, NotInvertible, invert, rank, solve
from hopfcat.report import PreconditionError
from hopfcat.scalars import QQ

ALL = ["kz2", "kz3", "taft4", "pair2", "pair3", "disjoint",
       "graded-z2-strong", "graded-z2-zero"]


# -- Hopf modules ------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL)
def test_stock_hopf_modules_valid(hopf_fixtures, name):
    a = hopf_fixtures[name]
    assert verify_hopf_module(regular_hopf_module(a)).overall
    for z in a.objects:
        assert verify_hopf_module(canonical_hopf_module(a, z)).overall
    assert verify_hopf_module(
        free_hopf_module(a, {x: 1 for x in a.objects})).overall


def test_trivial_coaction_breaks_compatibility(hopf_fixtures):
    a = hopf_fixtures["kz2"]
    m = regular_hopf_module(a)
    # replace the coaction with v ↦ v⊗1
    triv = [[[a.unit["*"][k] if i == j else QQ.zero for k in range(2)]
             for j in range(2)] for i in range(2)]
    m.coaction[("*", "*")] = triv
    rep = verify_hopf_module(m)
    assert not rep.overall
    assert any(it.axiom == "hopf-compat" for it in rep.failed())


def test_hopf_module_needs_semihopf_base():
    bad = idempotent_monoid_bialgebra(QQ)
    bad.counit[("*", "*")] = [QQ.one, QQ.zero]   # break the counit law
    with pytest.raises(PreconditionError):
        verify_hopf_module(regular_hopf_module(bad))


# -- canonical maps -----------------------------------------------------------------

def test_singleton_can_is_the_classical_galois_map(hopf_fixtures):
    a = hopf_fixtures["kz2"]
    cm = build_can(a, "*", "*", "*")
    # g_i ⊗ g_j ↦ g_{i+j} ⊗ g_j on the grouplike basis
    for i in range(2):
        for j in range(2):
            col = cm.col(i * 2 + j)
            expect = [QQ.zero] * 4
            expect[((i + j) % 2) * 2 + j] = QQ.one
            assert col == expect
    assert not isinstance(invert(cm), NotInvertible)


@pytest.mark.parametrize("name", ALL)
def test_can_invertible_and_closed_form_matches(hopf_fixtures, name):
    a = hopf_fixtures[name]
    for z in a.objects:
        for x in a.objects:
            for y in a.objects:
                ci = can_inverse(a, z, x, y)
                assert not isinstance(ci, NotInvertible)
                cm = build_can(a, z, x, y)
                ident = LinMap.identity(a.field, cm.rows)
                assert cm @ ci == ident and ci @ cm == ident


def test_idempotent_can_singular():
    a = idempotent_monoid_bialgebra(QQ)
    cm = build_can(a, "*", "*", "*")
    assert rank(cm) == 3 and cm.rows == 4
    out = can_inverse(a, "*", "*", "*")
    assert isinstance(out, NotInvertible) and out.rank == 3


# -- antipode recovery ---------------------------------------------------------------

@pytest.mark.parametrize("name", ALL)
def test_recovery_reproduces_stored_antipode(hopf_fixtures, name):
    a = hopf_fixtures[name]
    rec = recover_antipode(a.strip_antipode())
    assert rec.antipode == a.antipode
    assert verify_structure(rec, "hopf").overall


def test_recovery_failure_carries_witness():
    out = recover_antipode(idempotent_monoid_bialgebra(QQ))
    assert isinstance(out, RecoveryFailure)
    assert (out.z, out.x, out.y) == ("*", "*", "*")
    assert out.rank == 3 and out.dim == 4


def test_recovery_needs_semihopf():
    bad = group_algebra(QQ, 2)
    bad.counit[("*", "*")] = [QQ.zero, QQ.zero]
    with pytest.raises(PreconditionError):
        recover_antipode(bad.strip_antipode())


# -- coinvariants and the equivalence --------------------------------------------------

def test_regular_coinvariants_are_the_unit_line(hopf_fixtures):
    for name in ("kz2", "kz3"):
        a = hopf_fixtures[name]
        fam = coinvariants(regular_hopf_module(a))
        assert fam.bases["*"] == [tuple(a.unit["*"])]


def test_free_module_coinvariants_have_the_free_rank(hopf_fixtures):
    a = hopf_fixtures["kz2"]
    fam = coinvariants(free_hopf_module(a, {"*": 1}))
    assert fam.dim("*") == 1


def test_canonical_module_coinvariants_match_hom_component(hopf_fixtures):
    # the embedding a ↦ a⊗1 identifies A(z,x) with the coinvariants
    for name in ("pair2", "taft4"):
        a = hopf_fixtures[name]
        for z in a.objects:
            m = canonical_hopf_module(a, z)
            fam = coinvariants(m)
            for x in a.objects:
                embed = LinMap.identity(a.field, a.dim(z, x)).kron(
                    a.unit_map(x))
                incl = LinMap(a.field, m.dim(x, x), fam.dim(x),
                              [list(r) for r in zip(*fam.bases[x])])
                coords = solve(incl, embed)
                assert coords is not None
                assert fam.dim(x) == a.dim(z, x)
                assert not isinstance(invert(coords), NotInvertible)


def test_coinvariant_vectors_are_coinvariant(hopf_fixtures):
    a = hopf_fixtures["taft4"]
    m = regular_hopf_module(a)
    fam = coinvariants(m)
    d = m.dim("*", "*")
    rho = _split_map(a.field, m.coaction[("*", "*")], d, d, a.dim("*", "*"))
    against = LinMap.identity(a.field, d).kron(a.unit_map("*"))
    for v in fam.bases["*"]:
        col = LinMap.column(a.field, v)
        assert rho @ col == against @ col


def test_equivalence_on_regular_modules(hopf_fixtures):
    for name in ("kz2", "taft4", "pair2"):
        rep = check_equivalence(regular_hopf_module(hopf_fixtures[name]))
        assert rep.overall, rep.table()


def test_equivalence_on_canonical_modules(hopf_fixtures):
    for name in ("pair2", "kz3"):
        a = hopf_fixtures[name]
        for z in a.objects:
            rep = check_equivalence(canonical_hopf_module(a, z))
            assert rep.overall, rep.table()


def test_equivalence_on_random_free_modules(hopf_fixtures):
    rng = random.Random(20240811)
    a = hopf_fixtures["kz3"]
    for _ in range(3):
        n = {x: rng.randint(1, 3) for x in a.objects}
        rep = check_equivalence(free_hopf_module(a, n))
        assert rep.overall, rep.table()


def test_equivalence_needs_hopf_base():
    with pytest.raises(PreconditionError):
        check_equivalence(regular_hopf_module(idempotent_monoid_bialgebra(QQ)))


# -- instance-level agreement of the freeness conditions -------------------------------

def equivalence_holds_on_probes(a) -> bool:
    try:
        for z in a.objects:
            if not check_equivalence(canonical_hopf_module(a, z)).overall:
                return False
        return True
    except PreconditionError:
        return False


def test_freeness_conditions_agree_per_instance(hopf_fixtures):
    cases = list(hopf_fixtures.values()) + [idempotent_monoid_bialgebra(QQ)]
    for a in cases:
        table = can_rank_table(a.strip_antipode())
        all_can = all(r == d for (r, d) in table.values())
        probe_can = all(r == d for (z, x, y), (r, d) in table.items()
                        if z in (x, y))
        recovered = not isinstance(recover_antipode(a.strip_antipode()),
                                   RecoveryFailure)
        mutually_inverse = equivalence_holds_on_probes(a)
        assert all_can == probe_can == recovered == mutually_inverse
        if a.antipode is not None:
            assert recovered   # stored antipode forces the positive case


# -- dual Hopf module and integrals ------------------------------------------------------

@pytest.mark.parametrize("name", ALL)
def test_dual_hopf_module_valid(hopf_fixtures, name):
    rep = verify_hopf_module(dual_hopf_module(hopf_fixtures[name]))
    assert rep.overall, rep.table()


from oracles import sympy_integral_basis


@pytest.mark.parametrize("name", ALL)
def test_integrals_match_sympy_oracle(hopf_fixtures, name):
    a = hopf_fixtures[name]
    for x in a.objects:
        assert integrals(a, x) == sympy_integral_basis(a, x)


def test_integral_dimensions_are_one(hopf_fixtures):
    for name in ("kz2", "kz3", "pair2"):
        a = hopf_fixtures[name]
        for x in a.objects:
            assert len(integrals(a, x)) == 1


def test_integrals_equal_dual_module_coinvariants(hopf_fixtures):
    for name in ("kz2", "taft4", "pair2"):
        a = hopf_fixtures[name]
        fam = coinvariants(dual_hopf_module(a))
        for x in a.objects:
            assert integrals(a, x) == fam.bases[x]


def test_taft_integral_is_the_nilpotent_dual(hopf_fixtures):
    # frozen: the integral functional vanishes on 1, g, gx and pairs with x
    assert integrals(hopf_fixtures["taft4"], "*") == \
        [(Fraction(0), Fraction(0), Fraction(1), Fraction(0))]


# -- antipode bijectivity -----------------------------------------------------------------

@pytest.mark.parametrize("name", ALL)
def test_antipode_full_rank(hopf_fixtures, name):
    rep = check_antipode_bijective(hopf_fixtures[name])
    assert rep.overall, rep.table()


def test_taft_antipode_bijective_but_not_involutive(hopf_fixtures):
    a = hopf_fixtures["taft4"]
    s = a.antipode_map("*", "*")
    assert rank(s) == 4
    assert s @ s != LinMap.identity(QQ, 4)
