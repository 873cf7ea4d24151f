import copy

import pytest

from mutants import mutate

from hopfcat.core import verify_structure
from hopfcat.duoidal import (BimonoidData, MkXObject, bimonoid_from_category,
                             black_tensor, carrier_of, category_from_bimonoid,
                             unit_black, unit_white, verify_bimonoid,
                             white_inclusion, white_tensor, zeta)
from hopfcat.fixtures import idempotent_monoid_bialgebra
from hopfcat.linalg import LinMap
from hopfcat.scalars import QQ

ALL = ["kz2", "kz3", "taft4", "pair2", "pair3", "disjoint",
       "graded-z2-strong", "graded-z2-zero"]


# -- tensor bookkeeping ---------------------------------------------------------------

def test_white_tensor_of_ones_counts_objects():
    for labels in (("a",), ("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d")):
        j = unit_black(labels)
        jj, offsets = white_tensor(j, j)
        assert all(d == len(labels) for d in jj.dims.values())
        assert offsets[(labels[0], labels[0])] == \
            {y: i for i, y in enumerate(labels)}


def test_units_absorb():
    X = ("a", "b")
    j, i = unit_black(X), unit_white(X)
    m = MkXObject(X, {("a", "a"): 2, ("a", "b"): 1, ("b", "a"): 0,
                      ("b", "b"): 3})
    assert white_tensor(m, i)[0].dims == m.dims
    assert white_tensor(i, m)[0].dims == m.dims
    assert black_tensor(m, j).dims == m.dims
    assert black_tensor(i, i).dims == i.dims
    assert white_tensor(j, j)[0].dims == {k: 2 for k in j.dims}


def test_white_dims_sum_over_middle():
    X = ("a", "b")
    m = MkXObject(X, {("a", "a"): 2, ("a", "b"): 1, ("b", "a"): 3,
                      ("b", "b"): 1})
    prod, _ = white_tensor(m, m)
    assert prod.dim("a", "a") == 2 * 2 + 1 * 3
    assert prod.dim("a", "b") == 2 * 1 + 1 * 1


def test_white_inclusion_blocks():
    X = ("a", "b")
    m = MkXObject(X, {(x, y): 1 for x in X for y in X})
    inc_a = white_inclusion(QQ, m, m, "a", "a", "b")
    inc_b = white_inclusion(QQ, m, m, "a", "b", "b")
    assert inc_a.col(0) == [QQ.one, QQ.zero]
    assert inc_b.col(0) == [QQ.zero, QQ.one]


def test_zeta_all_dims_one_single_object():
    X = ("a",)
    j = unit_black(X)
    z = zeta(QQ, j, j, j, j)[("a", "a")]
    assert z == LinMap.identity(QQ, 1)


def test_zeta_all_dims_one_two_objects():
    X = ("a", "b")
    j = unit_black(X)
    z = zeta(QQ, j, j, j, j)[("a", "b")]
    assert (z.rows, z.cols) == (4, 2)
    # the diagonal block z goes to the (u,v)=(z,z) slot
    assert z.col(0) == [QQ.one, QQ.zero, QQ.zero, QQ.zero]
    assert z.col(1) == [QQ.zero, QQ.zero, QQ.zero, QQ.one]
    # entries are only 0/1
    assert all(v in (QQ.zero, QQ.one) for r in z.entries for v in r)


def test_zeta_on_units_composes_to_varpi():
    # with all four factors the black unit, following the interchange with
    # the product-of-sums map reproduces the plain coordinate sum
    X = ("a", "b")
    j = unit_black(X)
    jj, _ = white_tensor(j, j)
    for pair in ((x, y) for x in X for y in X):
        varpi = LinMap(QQ, 1, jj.dim(*pair), [[QQ.one] * jj.dim(*pair)])
        z = zeta(QQ, j, j, j, j)[pair]
        composite = varpi.kron(varpi) @ z
        assert composite == LinMap(QQ, 1, z.cols, [[QQ.one] * z.cols])


def _block_diag(field, blocks):
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [[field.zero] * cols for _ in range(rows)]
    ro = co = 0
    for b in blocks:
        for r in range(b.rows):
            for c in range(b.cols):
                out[ro + r][co + c] = b.entries[r][c]
        ro += b.rows
        co += b.cols
    return LinMap(field, rows, cols, out)


def test_duoidal_unit_laws_small_object_sets():
    # (J, coordinate sum, inclusion of I) is a monoid for the white product;
    # checked as matrix identities on every object pair for |X| up to 4
    for labels in (("a",), ("a", "b"), ("a", "b", "c"),
                   ("a", "b", "c", "d")):
        n = len(labels)
        j = unit_black(labels)
        i = unit_white(labels)
        jj, jj_off = white_tensor(j, j)
        ij, ij_off = white_tensor(i, j)
        ji, ji_off = white_tensor(j, i)
        varpi = LinMap(QQ, 1, n, [[QQ.one] * n])
        for x in labels:
            for y in labels:
                # associativity: both collapses of three factors sum all
                # n² coordinates
                left = varpi @ _block_diag(QQ, [varpi] * n)      # (ϖ⊙J) first
                right = varpi @ _block_diag(QQ, [varpi] * n)     # (J⊙ϖ) first
                allones = LinMap(QQ, 1, n * n, [[QQ.one] * (n * n)])
                assert left == allones == right
                # unit laws: the inclusion of I survives at one coordinate
                assert ij.dim(x, y) == 1 and ji.dim(x, y) == 1
                tau_j = [[QQ.zero] * 1 for _ in range(n)]
                tau_j[jj_off[(x, y)][x]][0] = QQ.one   # τ⊙J lands at block x
                assert varpi @ LinMap(QQ, n, 1, tau_j) \
                    == LinMap.identity(QQ, 1)
                tau_j2 = [[QQ.zero] * 1 for _ in range(n)]
                tau_j2[jj_off[(x, y)][y]][0] = QQ.one  # J⊙τ lands at block y
                assert varpi @ LinMap(QQ, n, 1, tau_j2) \
                    == LinMap.identity(QQ, 1)
        # (I, identity, inclusion) is a comonoid for the black product:
        # every component map is an identity on k or empty
        ii = black_tensor(i, i)
        assert ii.dims == i.dims


# -- bimonoids ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL)
def test_category_to_bimonoid_and_back(hopf_fixtures, name):
    a = hopf_fixtures[name]
    b = bimonoid_from_category(a)
    assert verify_bimonoid(b).overall
    assert category_from_bimonoid(b) == a.strip_antipode()
    assert bimonoid_from_category(category_from_bimonoid(b)) == b


def test_bimonoid_from_hand_built_data(hopf_fixtures):
    a = hopf_fixtures["pair2"]
    b = BimonoidData(QQ, carrier_of(a),
                     {k: copy.deepcopy(v) for k, v in a.mult.items()},
                     {x: list(v) for x, v in a.unit.items()},
                     {k: copy.deepcopy(v) for k, v in a.comult.items()},
                     {k: list(v) for k, v in a.counit.items()})
    assert verify_bimonoid(b).overall
    assert bimonoid_from_category(category_from_bimonoid(b)) == b


def mutate_cases(a):
    """Five deterministic single-constant faults with nonzero footprint."""
    key = next(k for k, d in a.dims.items() if d > 0)
    x, y = key
    up, down = (lambda v: v + QQ.one), (lambda v: v - QQ.one)
    return [mutate(a, [edit]) for edit in (
        ("mult", (x, y, y), (0, 0, 0), up), ("comult", key, (0, 0, 0), up),
        ("counit", key, (0,), up), ("unit", x, (0,), up),
        ("mult", (x, x, y), (0, 0, 0), down))]


@pytest.mark.parametrize("name", ALL)
def test_bimonoid_verdict_tracks_category_verdict(hopf_fixtures, name):
    a = hopf_fixtures[name]
    assert verify_structure(a, "semihopf").overall \
        == verify_bimonoid(bimonoid_from_category(a)).overall is True
    for mut in mutate_cases(a):
        vs = verify_structure(mut, "semihopf").overall
        vb = verify_bimonoid(bimonoid_from_category(mut)).overall
        assert vs == vb is False


def test_fault_injected_delta_fails_interchange(hopf_fixtures):
    b = bimonoid_from_category(hopf_fixtures["kz2"])
    bad = copy.deepcopy(b)
    # make the second basis vector primitive-ish: breaks multiplicativity
    bad.delta[("*", "*")][1] = [[QQ.zero, QQ.one], [QQ.one, QQ.zero]]
    rep = verify_bimonoid(bad)
    assert not rep.overall
    assert any(it.axiom.startswith("interchange") or
               it.axiom.startswith("comonoid") for it in rep.failed())


def test_bimonoid_of_non_hopf_bialgebra_passes():
    b = bimonoid_from_category(idempotent_monoid_bialgebra(QQ))
    assert verify_bimonoid(b).overall
