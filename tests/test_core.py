import pytest

from oracles import antipode_law_holds

from hopfcat.core import (MissingAntipodeError, MalformedDataError,
                          check_antipode_theorems, check_strictness,
                          is_strict, transform, verify_structure)
from hopfcat.fixtures import (group_algebra, idempotent_antipode_candidates,
                              idempotent_monoid_bialgebra, taft_four_dim)
from hopfcat.groupoid import linearize_groupoid, pair_groupoid
from hopfcat.report import PreconditionError
from hopfcat.scalars import GF, QQ


@pytest.mark.parametrize("name", ["kz2", "kz3", "taft4", "pair2", "pair3",
                                  "disjoint", "graded-z2-strong",
                                  "graded-z2-zero"])
def test_fixtures_pass_level_hopf(hopf_fixtures, name):
    rep = verify_structure(hopf_fixtures[name], "hopf")
    assert rep.overall, rep.table()
    assert antipode_law_holds(hopf_fixtures[name])


def test_verifier_matches_elementwise_oracle_on_failures():
    idem = idempotent_monoid_bialgebra(QQ)
    for cand in idempotent_antipode_candidates(QQ).values():
        bad = idem.with_antipode({("*", "*"): cand})
        assert not verify_structure(bad, "hopf").overall
        assert not antipode_law_holds(bad)


def test_idempotent_bialgebra_passes_semihopf_only():
    idem = idempotent_monoid_bialgebra(QQ)
    assert verify_structure(idem, "semihopf").overall
    with pytest.raises(MissingAntipodeError):
        verify_structure(idem, "hopf")


def test_failure_reports_witness_z():
    idem = idempotent_monoid_bialgebra(QQ)
    bad = idem.with_antipode(
        {("*", "*"): idempotent_antipode_candidates(QQ)["identity"]})
    rep = verify_structure(bad, "hopf")
    fails = rep.failed()
    assert {it.axiom for it in fails} == {"antipode-left", "antipode-right"}
    assert all(it.witness == 1 for it in fails)   # basis index of z
    assert all(it.residual for it in fails)


def test_malformed_dims_raise():
    a = group_algebra(QQ, 2)
    a.mult[("*", "*", "*")] = [[[QQ.one]]]
    with pytest.raises(MalformedDataError):
        verify_structure(a, "hopf")


def test_verify_over_prime_field():
    assert verify_structure(taft_four_dim(GF(3)), "hopf").overall
    assert verify_structure(group_algebra(GF(2), 3), "hopf").overall


# -- scale: these sizes are out of reach of a dense d^4 x d^4 check ----------------

def test_group_algebra_of_order_16_at_scale():
    a = group_algebra(QQ, 16)
    rep = verify_structure(a, "hopf")
    assert rep.overall, rep.table()
    assert [it.ok for it in rep.by_axiom("comult-mult")] == [True]
    theorems = check_antipode_theorems(a)
    assert theorems.overall, theorems.table()
    assert len(theorems.by_axiom("antipode-antimult")) == 1


def test_pair_groupoid_on_8_objects_at_scale():
    a = linearize_groupoid(pair_groupoid(tuple("abcdefgh")), QQ)
    rep = verify_structure(a, "hopf")
    assert rep.overall, rep.table()
    assert len(rep.by_axiom("assoc")) == 8 ** 4
    assert len(rep.by_axiom("comult-mult")) == 8 ** 3


def test_zero_dim_homs_pass_vacuously(hopf_fixtures):
    rep = verify_structure(hopf_fixtures["graded-z2-zero"], "hopf")
    assert rep.overall
    assert hopf_fixtures["graded-z2-zero"].dim("e", "g") == 0


# -- classical singleton reduction --------------------------------------------------

def classical_hopf_accepts(a) -> bool:
    """Plain one-object Hopf algebra axioms, written out independently."""
    (obj,) = a.objects
    d = a.dim(obj, obj)
    F = a.field
    mu = a.mult[(obj, obj, obj)]
    dc = a.comult[(obj, obj)]
    eps = a.counit[(obj, obj)]
    uni = a.unit[obj]
    rng = range(d)

    def mul_vec(u, v):
        out = [F.zero] * d
        for i in rng:
            if u[i]:
                for j in rng:
                    if v[j]:
                        for k in rng:
                            out[k] = out[k] + u[i] * v[j] * mu[i][j][k]
        return out

    basis = [[F.one if i == j else F.zero for j in rng] for i in rng]
    for i in rng:
        for j in rng:
            for k in rng:
                if mul_vec(mul_vec(basis[i], basis[j]), basis[k]) != \
                        mul_vec(basis[i], mul_vec(basis[j], basis[k])):
                    return False
    for i in rng:
        if mul_vec(uni, basis[i]) != basis[i] or \
                mul_vec(basis[i], uni) != basis[i]:
            return False
    # coassociativity and counit
    for i in rng:
        for p in rng:
            for q in rng:
                for r in rng:
                    lhs = sum((dc[i][j][r] * dc[j][p][q] for j in rng
                               if dc[i][j][r]), F.zero)
                    rhs = sum((dc[i][p][j] * dc[j][q][r] for j in rng
                               if dc[i][p][j]), F.zero)
                    if lhs != rhs:
                        return False
        left = [sum((dc[i][j][k] * eps[j] for j in rng), F.zero)
                for k in rng]
        right = [sum((dc[i][k][j] * eps[j] for j in rng), F.zero)
                 for k in rng]
        if left != basis[i] or right != basis[i]:
            return False
    # bialgebra compatibility
    for i in rng:
        for j in rng:
            prod = mul_vec(basis[i], basis[j])
            lhs = {}
            for t in rng:
                if prod[t]:
                    for p in rng:
                        for q in rng:
                            if dc[t][p][q]:
                                lhs[(p, q)] = lhs.get((p, q), F.zero) \
                                    + prod[t] * dc[t][p][q]
            rhs = {}
            for p1 in rng:
                for q1 in rng:
                    if not dc[i][p1][q1]:
                        continue
                    for p2 in rng:
                        for q2 in rng:
                            if not dc[j][p2][q2]:
                                continue
                            c = dc[i][p1][q1] * dc[j][p2][q2]
                            v1 = mul_vec(basis[p1], basis[p2])
                            v2 = mul_vec(basis[q1], basis[q2])
                            for t1 in rng:
                                if v1[t1]:
                                    for t2 in rng:
                                        if v2[t2]:
                                            rhs[(t1, t2)] = rhs.get(
                                                (t1, t2), F.zero) \
                                                + c * v1[t1] * v2[t2]
            lhs = {k: v for k, v in lhs.items() if v}
            rhs = {k: v for k, v in rhs.items() if v}
            if lhs != rhs:
                return False
        eps_prod = sum((mul_vec(basis[i], basis[j])[t] * eps[t]
                        for t in rng), F.zero)
        if eps_prod != eps[i] * eps[j]:
            return False
    dcu = {}
    for t in rng:
        if uni[t]:
            for p in rng:
                for q in rng:
                    if dc[t][p][q]:
                        dcu[(p, q)] = dcu.get((p, q), F.zero) \
                            + uni[t] * dc[t][p][q]
    expect = {}
    for p in rng:
        for q in rng:
            if uni[p] and uni[q]:
                expect[(p, q)] = uni[p] * uni[q]
    if {k: v for k, v in dcu.items() if v} != expect:
        return False
    if sum((uni[t] * eps[t] for t in rng), F.zero) != F.one:
        return False
    return antipode_law_holds(a)


def test_singleton_verifier_is_classical_hopf_checker(hopf_fixtures):
    cases = [hopf_fixtures["kz2"], hopf_fixtures["kz3"],
             hopf_fixtures["taft4"]]
    idem = idempotent_monoid_bialgebra(QQ)
    for cand in idempotent_antipode_candidates(QQ).values():
        cases.append(idem.with_antipode({("*", "*"): cand}))
    for a in cases:
        assert verify_structure(a, "hopf").overall == classical_hopf_accepts(a)


# -- derived antipode identities -----------------------------------------------------

def twisted_condition_flags(rep):
    axes = ("antipode-left-twisted", "antipode-right-twisted",
            "antipode-involutive")
    return tuple(all(it.ok for it in rep.by_axiom(ax)) for ax in axes)


def test_antipode_theorems_commutative_cases(hopf_fixtures):
    for name in ("kz2", "kz3", "pair2", "pair3"):
        rep = check_antipode_theorems(hopf_fixtures[name])
        assert all(it.ok for it in rep.by_axiom("antipode-antimult"))
        assert all(it.ok for it in rep.by_axiom("antipode-anticomult"))
        assert all(it.ok for it in rep.by_axiom("antipode-counit"))
        assert all(it.ok for it in rep.by_axiom("antipode-unit"))
        assert twisted_condition_flags(rep) == (True, True, True)
        assert all(it.ok for it in rep.by_axiom("antipode-conditions-agree"))


def test_antipode_theorems_taft(hopf_fixtures):
    rep = check_antipode_theorems(hopf_fixtures["taft4"])
    assert all(it.ok for it in rep.by_axiom("antipode-antimult"))
    assert all(it.ok for it in rep.by_axiom("antipode-anticomult"))
    assert all(it.ok for it in rep.by_axiom("antipode-counit"))
    assert twisted_condition_flags(rep) == (False, False, False)
    assert all(it.ok for it in rep.by_axiom("antipode-conditions-agree"))


def test_taft_antipode_square_frozen(hopf_fixtures):
    # S² fixes 1 and g, negates x and gx (hand computation)
    a = hopf_fixtures["taft4"]
    s = a.antipode_map("*", "*")
    s2 = (s @ s).entries
    assert [list(r) for r in s2] == \
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]


def test_antipode_theorems_need_hopf():
    with pytest.raises(PreconditionError):
        check_antipode_theorems(
            idempotent_monoid_bialgebra(QQ).with_antipode(
                {("*", "*"): idempotent_antipode_candidates(QQ)["identity"]}))


# -- transforms ----------------------------------------------------------------------

def test_transform_involutions(hopf_fixtures):
    for a in hopf_fixtures.values():
        for mode in ("opposite", "coopposite", "opcop"):
            out = transform(a, mode)
            assert verify_structure(out, "hopf").overall
            assert transform(out, mode) == a


def test_transform_commutation(hopf_fixtures):
    a = hopf_fixtures["taft4"]
    via_op = transform(transform(a, "opposite"), "coopposite")
    via_cop = transform(transform(a, "coopposite"), "opposite")
    assert via_op == transform(a, "opcop") == via_cop


def test_transform_fixes_symmetric_fixture(hopf_fixtures):
    kz2 = hopf_fixtures["kz2"]
    assert transform(kz2, "opposite") == kz2
    assert transform(kz2, "coopposite") == kz2


def test_transform_semihopf_without_antipode():
    idem = idempotent_monoid_bialgebra(QQ)
    out = transform(idem, "opposite")
    assert out.antipode is None
    assert verify_structure(out, "semihopf").overall


# -- strictness ----------------------------------------------------------------------

def test_strictness_connected_groupoid(hopf_fixtures):
    assert is_strict(hopf_fixtures["pair3"])
    assert is_strict(hopf_fixtures["kz2"])


def test_strictness_zero_offdiagonal(hopf_fixtures):
    rep = check_strictness(hopf_fixtures["disjoint"])
    assert not all(it.ok for it in rep.by_axiom("compose-surjective"))
    bad = [it for it in rep.by_axiom("compose-surjective") if not it.ok]
    assert ("a", "b", "a") in {it.objects for it in bad}


def test_strictness_conditions_agree_on_all_fixtures(hopf_fixtures):
    for a in hopf_fixtures.values():
        rep = check_strictness(a)
        agree = rep.by_axiom("strictness-conditions-agree")
        assert len(agree) == 1 and agree[0].ok


def test_strictness_graded(hopf_fixtures):
    assert is_strict(hopf_fixtures["graded-z2-strong"])
    assert not is_strict(hopf_fixtures["graded-z2-zero"])
