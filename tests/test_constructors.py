import pytest

from oracles import reference_group_algebra

from hopfcat.core import verify_structure
from hopfcat.dual import dualize, undualize, verify_dual
from hopfcat.fixtures import (disjoint_union_groupoid, group_algebra,
                              pair_groupoid_2, strongly_graded_z2,
                              taft_four_dim, z2_groupoid,
                              zero_component_graded_z2)
from hopfcat.graded import (GradedError, GroupTable, from_graded,
                            validate_graded)
from hopfcat.groupoid import (GroupoidData, GroupoidError, linearize_groupoid,
                              pair_groupoid, validate_groupoid)
from hopfcat.scalars import GF, QQ


# -- groupoids -----------------------------------------------------------------------

def test_group_linearizes_to_group_algebra():
    # same constants as the hand-filled kZ/2 up to the object label
    a = linearize_groupoid(z2_groupoid(), QQ)
    b = reference_group_algebra(QQ, 2)
    assert a.mult[(a.objects[0],) * 3] == b.mult[("*", "*", "*")]
    assert a.comult[(a.objects[0],) * 2] == b.comult[("*", "*")]
    assert a.antipode[(a.objects[0],) * 2] == b.antipode[("*", "*")]


def test_pair_groupoid_linearization_shape():
    a = linearize_groupoid(pair_groupoid_2(), QQ)
    assert all(d == 1 for d in a.dims.values())
    assert all(t == [[[QQ.one]]] for t in a.mult.values())
    assert verify_structure(a, "hopf").overall


def test_disjoint_union_dims():
    a = linearize_groupoid(disjoint_union_groupoid(), QQ)
    assert a.dim("a", "a") == 2 and a.dim("b", "b") == 1
    assert a.dim("a", "b") == 0 and a.dim("b", "a") == 0
    assert verify_structure(a, "hopf").overall


def test_groupoid_comultiplication_is_grouplike_diagonal():
    a = linearize_groupoid(pair_groupoid(("1", "2", "3")), QQ)
    for (x, y), t in a.comult.items():
        d = a.dim(x, y)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    expect = QQ.one if i == j == k else QQ.zero
                    assert t[i][j][k] == expect


def test_groupoid_missing_inverse_rejected():
    # drop the inverse of one morphism from the two-object pair groupoid
    g = pair_groupoid_2()
    bad = GroupoidData(g.objects, g.morphisms, g.identities, g.compose,
                       {k: v for k, v in g.inverses.items()
                        if k != "p_1_2"})
    with pytest.raises(GroupoidError) as exc:
        validate_groupoid(bad)
    assert "p_1_2" in str(exc.value)


def test_groupoid_broken_associativity_rejected():
    g = z2_groupoid()
    comp = dict(g.compose)
    comp[("s", "s")] = "s"
    with pytest.raises(GroupoidError):
        validate_groupoid(GroupoidData(g.objects, g.morphisms, g.identities,
                                       comp, g.inverses))


def test_hom_convention_morphisms_into_the_target():
    # hom slot (x,y) collects the morphisms y → x
    g = pair_groupoid_2()
    assert g.hom("1", "2") == ["p_1_2"]
    assert g.source("p_1_2") == "2" and g.target("p_1_2") == "1"


# -- graded lifts --------------------------------------------------------------------

def test_graded_fixture_validates():
    assert validate_graded(strongly_graded_z2(QQ)).overall
    assert validate_graded(zero_component_graded_z2(QQ)).overall


def test_group_table_validation():
    bad = GroupTable(("e", "g"), {("e", "e"): "e", ("e", "g"): "g",
                                  ("g", "e"): "g", ("g", "g"): "g"})
    with pytest.raises(GradedError):
        bad.validate()


def test_from_graded_strong():
    a = from_graded(strongly_graded_z2(QQ))
    assert a.objects == ("e", "g")
    assert all(d == 1 for d in a.dims.values())
    assert verify_structure(a, "hopf").overall


def test_from_graded_zero_component():
    a = from_graded(zero_component_graded_z2(QQ))
    assert a.dim("e", "g") == 0 and a.dim("g", "e") == 0
    assert a.dim("e", "e") == 1 and a.dim("g", "g") == 1
    assert verify_structure(a, "hopf").overall


def test_from_graded_trivial_group_is_the_component():
    h = taft_four_dim(QQ)
    triv = GroupTable(("e",), {("e", "e"): "e"})
    from hopfcat.graded import GradedHopfData
    g1 = GradedHopfData(QQ, triv, {"e": 4},
                        {("e", "e"): h.mult[("*", "*", "*")]},
                        list(h.unit["*"]),
                        {"e": h.comult[("*", "*")]},
                        {"e": list(h.counit[("*", "*")])},
                        {"e": h.antipode[("*", "*")]})
    a = from_graded(g1)
    assert a.objects == ("e",)
    assert a.mult[("e", "e", "e")] == h.mult[("*", "*", "*")]
    assert a.antipode[("e", "e")] == h.antipode[("*", "*")]
    assert verify_structure(a, "hopf").overall


def test_from_graded_rejects_broken_axioms():
    h = strongly_graded_z2(QQ)
    h.mult[("g", "g")] = [[[QQ.of(2)]]]
    with pytest.raises(GradedError) as exc:
        from_graded(h)
    assert exc.value.degrees


# -- duality --------------------------------------------------------------------------

def test_dual_of_group_algebra_is_function_algebra():
    c = dualize(group_algebra(QQ, 2))
    t = c.alg[("*", "*")]
    # delta-function basis: f_i f_j = [i == j] f_i
    for i in range(2):
        for j in range(2):
            for k in range(2):
                expect = QQ.one if i == j == k else QQ.zero
                assert t[i][j][k] == expect
    assert verify_dual(c).overall


def test_dual_pair_groupoid_self_shaped(hopf_fixtures):
    c = dualize(hopf_fixtures["pair2"])
    assert all(d == 1 for d in c.dims.values())
    assert all(t == [[[QQ.one]]] for t in c.alg.values())
    assert all(t == [[[QQ.one]]] for t in c.cocomp.values())
    assert verify_dual(c).overall


@pytest.mark.parametrize("name", ["kz2", "kz3", "taft4", "pair2", "pair3",
                                  "disjoint", "graded-z2-strong",
                                  "graded-z2-zero"])
def test_duality_exact_involution(hopf_fixtures, name):
    a = hopf_fixtures[name]
    c = dualize(a)
    assert verify_dual(c).overall
    assert undualize(c) == a
    assert dualize(undualize(c)) == c


def test_dual_antipode_identities_reported(hopf_fixtures):
    rep = verify_dual(dualize(hopf_fixtures["taft4"]))
    assert rep.by_axiom("dual-antipode-left")
    assert rep.by_axiom("dual-antipode-right")
    assert rep.overall


def test_duality_over_prime_field():
    a = taft_four_dim(GF(5))
    assert undualize(dualize(a)) == a
    assert verify_dual(dualize(a)).overall


def test_dual_of_semihopf_has_no_antipode():
    from hopfcat.fixtures import idempotent_monoid_bialgebra
    c = dualize(idempotent_monoid_bialgebra(QQ))
    assert c.antipode is None
    assert verify_dual(c).overall
