import copy

import pytest

from oracles import dense_weak

from hopfcat.core import MissingAntipodeError
from hopfcat.dual import dualize
from hopfcat.fixtures import idempotent_monoid_bialgebra, pair_groupoid_3
from hopfcat.groupoid import linearize_groupoid, pair_groupoid
from hopfcat.scalars import QQ
from hopfcat.weak import (WeakHopfData, counital_source, counital_target,
                          pack, pack_dual, verify_weak_hopf)


def basis_product(w, i, j):
    """e_i·e_j as a sparse coordinate vector, read straight off w.mult."""
    return {k: c for (a, b, k), c in w.mult.items() if (a, b) == (i, j) and c}


def unit_coproduct(w):
    """Δ(1) as {(j, k): coefficient}, summed straight off w.comult."""
    out = {}
    for (i,), u in w.unit.items():
        for (a, j, k), c in w.comult.items():
            if a == i and u * c:
                out[(j, k)] = out.get((j, k), QQ.zero) + u * c
    return {key: v for key, v in out.items() if v}


@pytest.mark.parametrize("name", ["kz2", "kz3", "taft4", "pair2", "pair3",
                                  "disjoint", "graded-z2-strong",
                                  "graded-z2-zero"])
def test_pack_passes_weak_axioms(hopf_fixtures, name):
    rep = verify_weak_hopf(pack(hopf_fixtures[name]))
    assert rep.overall, rep.table()


@pytest.mark.parametrize("name", ["kz2", "kz3", "taft4", "pair2", "pair3",
                                  "disjoint", "graded-z2-strong",
                                  "graded-z2-zero"])
def test_pack_dual_passes_weak_axioms(hopf_fixtures, name):
    rep = verify_weak_hopf(pack_dual(dualize(hopf_fixtures[name])))
    assert rep.overall, rep.table()


def test_singleton_pack_is_the_algebra_itself(hopf_fixtures):
    a = hopf_fixtures["kz2"]
    w = pack(a)
    assert w.total_dim == 2
    assert w.blocks == ((("*", "*"), 0, 2),)
    d = dense_weak(w)
    assert d.mult == a.mult[("*", "*", "*")]
    assert d.comult == a.comult[("*", "*")]
    # a genuine Hopf algebra: eps_t = eps_s = eps(·)1
    for i, base in enumerate(d.counit):
        h = {i: QQ.one}
        expect = {j: base * v for j, v in enumerate(d.unit) if base * v}
        assert counital_target(w, h) == expect
        assert counital_source(w, h) == expect


# -- scale: n = 36, so n^3 = 46,656 basis triples -----------------------------------

@pytest.mark.parametrize("packing", [pack, lambda a: pack_dual(dualize(a))],
                         ids=["pack", "pack_dual"])
def test_packed_pair_groupoid_on_6_objects_at_scale(packing):
    w = packing(linearize_groupoid(pair_groupoid(tuple("abcdef")), QQ))
    assert w.total_dim == 36
    rep = verify_weak_hopf(w)
    assert rep.overall, rep.table()
    assert all(it.objects == () for it in rep.items)


def test_pack_pair_groupoid_is_the_groupoid_algebra(hopf_fixtures):
    # independent oracle: multiply basis morphisms through the composition
    # table, zero when endpoints do not match
    g = pair_groupoid_3()
    a = linearize_groupoid(g, QQ)
    w = pack(a)
    assert w.total_dim == 9
    blocks = {pair: off for (pair, off, _) in w.blocks}
    names = {pair: g.hom(*pair)[0] for pair in blocks}
    for (p1, o1) in blocks.items():
        for (p2, o2) in blocks.items():
            prod = basis_product(w, o1, o2)
            if p1[1] == p2[0]:
                target = (p1[0], p2[1])
                composite = g.compose[(names[p1], names[p2])]
                assert composite == names[target]
                assert prod == {blocks[target]: QQ.one}
            else:
                assert prod == {}


def test_packed_unit_comultiplies_to_diagonal_blocks(hopf_fixtures):
    w = pack(hopf_fixtures["pair2"])
    d1 = unit_coproduct(w)
    diag = {off for (pair, off, _) in w.blocks if pair[0] == pair[1]}
    assert d1 == {(i, i): QQ.one for i in diag}
    # strictly weak: not 1 ⊗ 1
    one = {i: v for (i,), v in w.unit.items() if v}
    full = {(i, j): u * v for i, u in one.items() for j, v in one.items()}
    assert d1 != full


def test_counital_maps_closed_form(hopf_fixtures):
    a = hopf_fixtures["pair3"]
    w = pack(a)
    off = {pair: o for (pair, o, _) in w.blocks}
    for (x, y), o in off.items():
        h = {o: QQ.one}
        eps_val = a.counit[(x, y)][0]
        assert counital_target(w, h) == {off[(x, x)]: eps_val}
        assert counital_source(w, h) == {off[(y, y)]: eps_val}


def test_pack_requires_antipode():
    with pytest.raises(MissingAntipodeError):
        pack(idempotent_monoid_bialgebra(QQ))


def test_pack_dual_unit_spans_all_blocks(hopf_fixtures):
    wd = pack_dual(dualize(hopf_fixtures["pair2"]))
    assert wd.unit == {(i,): QQ.one for i in range(wd.total_dim)}
    # counit supported on diagonal blocks only
    off_diag = [off for (pair, off, ln) in wd.blocks if pair[0] != pair[1]]
    assert all(wd.counit.get((o,), QQ.zero) == QQ.zero for o in off_diag)


def test_fault_injected_mutant_fails_with_witness(hopf_fixtures):
    w = pack(hopf_fixtures["pair2"])
    bad = copy.deepcopy(w)
    bad.mult[(0, 3, 0)] = QQ.one     # non-composable blocks now multiply
    rep = verify_weak_hopf(bad)
    assert not rep.overall
    assert any(it.witness is not None for it in rep.failed())


def test_weak_counit_law_is_checked_on_every_triple(hopf_fixtures):
    # Δ(e_0) picks up the cross-block term e_0⊗e_3, so the law now fails on
    # triples whose blocks do not compose, which a check restricted to
    # composable blocks would pass
    w = pack(hopf_fixtures["pair2"])
    assert (0, 0, 3) not in w.comult
    w.comult[(0, 0, 3)] = QQ.one
    rep = verify_weak_hopf(w)
    assert not rep.by_axiom("weak-counit-audit")
    for axiom in ("weak-counit-left", "weak-counit-right"):
        items = rep.by_axiom(axiom)
        assert items[-1].objects == () and not items[-1].ok
        assert all(len(it.objects) == 6 for it in items[:-1])
        assert len(items) == 5
    first = rep.by_axiom("weak-counit-left")[0]
    assert first.objects == ("1", "1", "1", "1", "2", "1")
    assert first.witness == 0
    assert first.residual == "eps(hkl)=0 split1=1 split2=0"
    assert rep.by_axiom("weak-counit-right")[0].residual \
        == "eps(hkl)=0 split1=0 split2=1"


def test_blocks_must_tile():
    from hopfcat.core import MalformedDataError
    w = pack_dual(dualize(idempotent_dummy()))
    bad = WeakHopfData(w.field, w.total_dim + 1, w.blocks, w.mult, w.unit,
                       w.comult, w.counit, w.antipode)
    with pytest.raises(MalformedDataError):
        bad.validate_shape()


def idempotent_dummy():
    from hopfcat.fixtures import group_algebra
    return group_algebra(QQ, 2)
