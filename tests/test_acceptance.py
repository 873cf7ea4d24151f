"""Acceptance gate: one test per criterion, each printing its own pass/fail
line.  Every comparison is exact — there are no tolerances anywhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
"""

import os
import time
from contextlib import contextmanager

from mutants import mutate
from oracles import antipode_law_holds, sympy_integral_basis

from hopfcat.cli import main as cli_main
from hopfcat.core import (check_antipode_theorems, check_strictness,
                          is_strict, verify_structure)
from hopfcat.dual import dualize, undualize, verify_dual
from hopfcat.duoidal import bimonoid_from_category, category_from_bimonoid, \
    verify_bimonoid
from hopfcat.fileformat import parse, serialize
from hopfcat.fixtures import (hopf_fixtures as build_fixtures,
                              idempotent_monoid_bialgebra, pair_groupoid_3)
from hopfcat.fundamental import (RecoveryFailure, build_can, can_inverse,
                                 can_rank_table, canonical_hopf_module,
                                 check_antipode_bijective, check_equivalence,
                                 coinvariants, dual_hopf_module,
                                 free_hopf_module, integrals,
                                 recover_antipode)
from hopfcat.groupoid import linearize_groupoid
from hopfcat.linalg import LinMap, NotInvertible, invert, rank
from hopfcat.modules import (comodule_to_module, module_to_comodule,
                             regular_comodule, regular_module)
from hopfcat.scalars import QQ
from hopfcat.weak import pack, pack_dual, verify_weak_hopf

_SUITE_START = time.perf_counter()
FIXTURES = build_fixtures(QQ)
HOPF_NAMES = tuple(FIXTURES)
FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


@contextmanager
def criterion(num: int, desc: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}")


def test_criterion_01_groupoid_pipeline():
    with criterion(1, "three-object pair groupoid pipeline, under 1s"):
        t0 = time.perf_counter()
        a = linearize_groupoid(pair_groupoid_3(), QQ)
        rep = verify_structure(a, "hopf")
        assert rep.overall
        # full coverage: 27 composition triples, 9 hom coalgebras
        assert len(rep.by_axiom("comult-mult")) == 27
        assert len(rep.by_axiom("coassoc")) == 9
        assert len(rep.by_axiom("antipode-left")) == 9
        assert len(rep.by_axiom("assoc")) == 81

        w = pack(a)
        wrep = verify_weak_hopf(w)
        assert wrep.overall
        diag = {off for (pair, off, _) in w.blocks if pair[0] == pair[1]}
        unit_coproduct = {}
        for (i,), u in w.unit.items():
            for (h, j, k), c in w.comult.items():
                if h == i and u * c:
                    unit_coproduct[(j, k)] = \
                        unit_coproduct.get((j, k), QQ.zero) + u * c
        assert {key: v for key, v in unit_coproduct.items() if v} == \
            {(i, i): QQ.one for i in sorted(diag)}

        # packed products equal the groupoid algebra's
        g = pair_groupoid_3()
        blocks = {pair: off for (pair, off, _) in w.blocks}
        names = {pair: g.hom(*pair)[0] for pair in blocks}
        for p1, o1 in blocks.items():
            for p2, o2 in blocks.items():
                prod = {k: c for (i, j, k), c in w.mult.items()
                        if (i, j) == (o1, o2) and c}
                if p1[1] == p2[0]:
                    target = (p1[0], p2[1])
                    assert g.compose[(names[p1], names[p2])] == names[target]
                    assert prod == {blocks[target]: QQ.one}
                else:
                    assert prod == {}
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_singleton_reduction():
    with criterion(2, "group algebras and the four-dimensional Hopf algebra"):
        for name, involutive in (("kz2", True), ("kz3", True),
                                 ("taft4", False)):
            a = FIXTURES[name]
            assert verify_structure(a, "hopf").overall
            assert antipode_law_holds(a)
            rep = check_antipode_theorems(a)
            assert all(it.ok for it in rep.by_axiom("antipode-antimult"))
            assert all(it.ok for it in rep.by_axiom("antipode-anticomult"))
            assert all(it.ok for it in rep.by_axiom("antipode-counit"))
            assert all(it.ok for it in rep.by_axiom("antipode-unit"))
            flags = tuple(
                all(it.ok for it in rep.by_axiom(ax))
                for ax in ("antipode-left-twisted", "antipode-right-twisted",
                           "antipode-involutive"))
            assert flags == (involutive,) * 3            # pairwise equal
            assert all(it.ok
                       for it in rep.by_axiom("antipode-conditions-agree"))


def test_criterion_03_fundamental_theorem_positive():
    with criterion(3, "canonical maps invert, antipodes recover, freeness "
                      "composites are identities"):
        for name in HOPF_NAMES:
            a = FIXTURES[name]
            for z in a.objects:
                for x in a.objects:
                    for y in a.objects:
                        ci = can_inverse(a, z, x, y)   # closed form, checked
                        assert not isinstance(ci, NotInvertible)
                        cm = build_can(a, z, x, y)
                        assert invert(cm) == ci
            stripped = parse(serialize(a.strip_antipode()))
            rec = recover_antipode(stripped)
            assert not isinstance(rec, RecoveryFailure)
            assert rec.antipode == a.antipode
        for name in ("kz2", "kz3", "taft4", "pair2", "pair3"):
            a = FIXTURES[name]
            for z in a.objects:
                assert check_equivalence(canonical_hopf_module(a, z)).overall
            assert check_equivalence(
                free_hopf_module(a, {x: 1 for x in a.objects})).overall


def test_criterion_04_fundamental_theorem_negative():
    with criterion(4, "no antipode for the idempotent-monoid bialgebra"):
        idem = idempotent_monoid_bialgebra(QQ)
        table = can_rank_table(idem)
        assert any(r < d for (r, d) in table.values())
        out = recover_antipode(idem)
        assert isinstance(out, RecoveryFailure)
        assert (out.z, out.x, out.y) == ("*", "*", "*") and out.rank == 3
        for cand in ("identity", "collapse_to_unit", "kill_z"):
            path = os.path.join(FIXTURE_DIR,
                                f"idempotent_candidate_{cand}.hc")
            assert cli_main(["--quiet", "verify", path,
                             "--level", "hopf"]) == 1


def test_criterion_05_duality():
    with criterion(5, "byte-identical duality round trips, dual antipode "
                      "laws, dual packing"):
        for name in HOPF_NAMES:
            a = FIXTURES[name]
            blob = serialize(a)
            c = dualize(parse(blob))
            dual_blob = serialize(c)
            assert serialize(undualize(parse(dual_blob))) == blob
            assert serialize(dualize(parse(serialize(undualize(c))))) \
                == dual_blob
            rep = verify_dual(c)
            assert rep.overall
            assert rep.by_axiom("dual-antipode-left")
            assert rep.by_axiom("dual-antipode-right")
            assert verify_weak_hopf(pack_dual(c)).overall


def test_criterion_06_comodule_module_correspondence():
    with criterion(6, "module/comodule translation round trips exactly"):
        for name in HOPF_NAMES:
            a = FIXTURES[name]
            cm = regular_comodule(dualize(a))
            assert module_to_comodule(comodule_to_module(cm)) == cm
            rm = regular_module(a, "right")
            assert comodule_to_module(module_to_comodule(rm)) == rm


def test_criterion_07_integrals():
    with criterion(7, "one-dimensional integrals, equal to dual-module "
                      "coinvariants, with bijective pairing"):
        for name in ("kz2", "kz3"):
            a = FIXTURES[name]
            basis = integrals(a, "*")
            assert len(basis) == 1
            assert basis == sympy_integral_basis(a, "*")
        for name in HOPF_NAMES:
            a = FIXTURES[name]
            fam = coinvariants(dual_hopf_module(a))
            for x in a.objects:
                ints = integrals(a, x)   # raises if any pairing is singular
                assert ints == fam.bases[x]
                assert ints == sympy_integral_basis(a, x)


def _mutants(a):
    key = next(k for k, d in a.dims.items() if d > 0)
    x, y = key
    up, down = (lambda v: v + QQ.one), (lambda v: v - QQ.one)
    return [mutate(a, [edit]) for edit in (
        ("mult", (x, y, y), (0, 0, 0), up), ("comult", key, (0, 0, 0), up),
        ("counit", key, (0,), up), ("unit", x, (0,), up),
        ("mult", (x, x, y), (0, 0, 0), down))]


def test_criterion_08_bimonoid_correspondence():
    with criterion(8, "bimonoid translation is an exact bijection that "
                      "preserves validity"):
        for name in HOPF_NAMES:
            a = FIXTURES[name]
            b = bimonoid_from_category(a)
            assert category_from_bimonoid(b) == a.strip_antipode()
            assert bimonoid_from_category(category_from_bimonoid(b)) == b
            assert verify_bimonoid(b).overall \
                == verify_structure(a, "semihopf").overall is True
            for mut in _mutants(a):
                vs = verify_structure(mut, "semihopf").overall
                vb = verify_bimonoid(bimonoid_from_category(mut)).overall
                assert vs == vb is False


def test_criterion_09_strictness():
    with criterion(9, "strictness detects strongly graded components and "
                      "connected groupoids"):
        assert is_strict(FIXTURES["pair2"])
        assert is_strict(FIXTURES["pair3"])
        assert is_strict(FIXTURES["kz2"])
        assert is_strict(FIXTURES["graded-z2-strong"])
        assert not is_strict(FIXTURES["graded-z2-zero"])
        assert not is_strict(FIXTURES["disjoint"])
        for name in HOPF_NAMES:
            rep = check_strictness(FIXTURES[name])
            agree = rep.by_axiom("strictness-conditions-agree")
            assert len(agree) == 1 and agree[0].ok


def test_criterion_10_antipode_bijectivity():
    with criterion(10, "all antipode matrices have full rank; the "
                       "four-dimensional one is not involutive"):
        for name in HOPF_NAMES:
            assert check_antipode_bijective(FIXTURES[name]).overall
        s = FIXTURES["taft4"].antipode_map("*", "*")
        assert rank(s) == 4
        assert s @ s != LinMap.identity(QQ, 4)


def test_criterion_11_whole_suite_runtime():
    elapsed = time.perf_counter() - _SUITE_START
    with criterion(11, f"acceptance criteria finished in {elapsed:.1f}s"):
        assert elapsed < 60.0
