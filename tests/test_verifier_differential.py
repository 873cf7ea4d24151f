"""The dual, duoidal, module, comodule, Hopf-module and graded verifiers
against the dense matrix verifiers they replaced.

Both must produce the same report records (axiom, objects, verdict, first
witness, residual, failure count) item for item, on passing and failing
data alike, or raise the same precondition error.
"""

import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

from mutants import mutate, slots
from oracles import (dense_validate_graded, dense_verify_bimonoid,
                     dense_verify_comodule, dense_verify_dual,
                     dense_verify_hopf_module, dense_verify_module)

from hopfcat import fixtures as fx
from hopfcat.core import HopfCatData, verify_structure
from hopfcat.dual import DualHopfCatData, dualize, verify_dual
from hopfcat.duoidal import (BimonoidData, bimonoid_from_category,
                             verify_bimonoid)
from hopfcat.fileformat import load
from hopfcat.fundamental import (HopfModuleData, regular_hopf_module,
                                 verify_hopf_module)
from hopfcat.graded import GradedHopfData, GroupTable, validate_graded
from hopfcat.modules import (ComoduleData, ModuleData, regular_comodule,
                             regular_module, verify_comodule, verify_module)
from hopfcat.report import PreconditionError
from hopfcat.scalars import GF, QQ

HOPF = ("mult", "unit", "comult", "counit", "antipode")
DUAL = ("alg", "unit", "cocomp", "counit", "antipode")


def of_base(names):
    return tuple("base." + name for name in names)


# kind -> (verifier, dense oracle, the tensors a mutant may edit, the base's
# included: the module verifiers read the base without checking it)
KINDS = {
    DualHopfCatData: (verify_dual, dense_verify_dual, DUAL),
    BimonoidData: (verify_bimonoid, dense_verify_bimonoid,
                   ("mu", "eta", "delta", "eps")),
    ModuleData: (verify_module, dense_verify_module,
                 ("action",) + of_base(HOPF)),
    ComoduleData: (verify_comodule, dense_verify_comodule,
                   ("coaction",) + of_base(DUAL)),
    HopfModuleData: (verify_hopf_module, dense_verify_hopf_module,
                     ("action", "coaction") + of_base(HOPF)),
    GradedHopfData: (validate_graded, dense_validate_graded, HOPF),
}


def outcome(fn, obj):
    """The records of a report, or the exception type it raised."""
    try:
        return [it.record() for it in fn(obj).items]
    except PreconditionError as e:
        return type(e)


def assert_same_reports(obj):
    new, old, _ = KINDS[type(obj)]
    result = outcome(new, obj)
    assert result == outcome(old, obj)
    return result


def passes(result) -> bool:
    return isinstance(result, list) and all(
        r["ok"] for r in result if r["required"])


def fixture_files(fixture_dir, kinds):
    out = []
    for path in sorted(glob.glob(os.path.join(fixture_dir, "*.hc"))):
        with open(path) as fh:
            text = fh.read()
        if any(f"kind {kind}\n" in text for kind in kinds):
            out.append(path)
    return out


PORTED = ("dual-hopf-category", "bimonoid", "module", "comodule",
          "hopf-module", "graded-hopf")


def test_every_fixture_of_a_ported_kind(fixture_dir):
    paths = fixture_files(fixture_dir, PORTED)
    assert len(paths) == 9
    for path in paths:
        assert passes(assert_same_reports(load(path))), path


def test_bimonoid_and_dual_of_every_hopf_category_fixture(fixture_dir):
    paths = fixture_files(fixture_dir, ("hopf-category",))
    assert len(paths) == 20
    for path in paths:
        a = load(path)
        assert_same_reports(bimonoid_from_category(a))
        assert_same_reports(dualize(a))


def single_mutant_inputs(fixture_dir):
    def fixture(name):
        return load(os.path.join(fixture_dir, name + ".hc"))
    return {
        "kz2_dual": fixture("kz2_dual"),
        "pair2_dual": fixture("pair2_dual"),
        "bimonoid(kz2)": bimonoid_from_category(fixture("kz2")),
        "kz2_regular_module": fixture("kz2_regular_module"),
        "kz2_dual_regular_comodule": fixture("kz2_dual_regular_comodule"),
        "kz2_regular_hopf_module": fixture("kz2_regular_hopf_module"),
        "graded_z2_strong": fixture("graded_z2_strong_graded"),
        "pair3_dual": dualize(fixture("pair3")),
        "bimonoid(pair3)": bimonoid_from_category(fixture("pair3")),
    }


# the base tensors that a kind's laws never read: a single-coefficient
# mutant passes exactly when it changes one of these
UNREAD = {ModuleData: of_base(("comult", "counit", "antipode")),
          ComoduleData: of_base(("alg", "unit", "antipode")),
          HopfModuleData: of_base(("antipode",))}


def assert_same_reports_on_single_mutants(obj):
    """Every single-coefficient mutant of ``obj`` gives the records of the
    dense verifier; it passes exactly when it changes a tensor the kind's
    laws never read, and otherwise fails a family that reads the tensor it
    changed (``READS``)."""
    field = obj.base.field if hasattr(obj, "base") else obj.field
    bump = (lambda v: v * 2 if v else field.one)
    reads = READS[type(obj)]
    every = list(slots(obj, KINDS[type(obj)][2]))
    survivors = []
    for slot in every:
        mut = mutate(obj, [slot + (bump,)])
        result = assert_same_reports(mut)
        if passes(result):
            survivors.append(slot)
            continue
        failed = failed_families(mut, result)
        assert failed & reads[slot[0]], (slot, sorted(failed))
    unread = UNREAD.get(type(obj), ())
    assert survivors == [slot for slot in every if slot[0] in unread]
    assert len(survivors) < len(every) and len(every) >= 8
    return len(survivors), len(every)


def failed_families(obj, result) -> set:
    """The failing required families of a report's records; for a Hopf
    module whose base fails level 'semihopf' (its precondition), those of
    the base's report."""
    if isinstance(result, list):
        return {r["axiom"] for r in result if r["required"] and not r["ok"]}
    assert result is PreconditionError
    return {it.axiom for it in verify_structure(obj.base, "semihopf").failed()}


def reading(families: str) -> set:
    return set(families.split())


# the families whose sides read each tensor a mutant may change, by kind;
# a base tensor of a Hopf module is also read by the families of the
# base's own verification, which a failing base reports instead
READS = {
    DualHopfCatData: {
        "alg": reading("alg-assoc alg-unit-left alg-unit-right cocomp-mult "
                       "counit-mult dual-antipode-left dual-antipode-right"),
        "unit": reading("alg-unit-left alg-unit-right cocomp-unit "
                        "counit-unit dual-antipode-left dual-antipode-right"),
        "cocomp": reading("cocomp-coassoc cocomp-counit-left "
                          "cocomp-counit-right cocomp-mult cocomp-unit "
                          "dual-antipode-left dual-antipode-right"),
        "counit": reading("cocomp-counit-left cocomp-counit-right "
                          "counit-mult counit-unit dual-antipode-left "
                          "dual-antipode-right"),
        "antipode": reading("dual-antipode-left dual-antipode-right"),
    },
    BimonoidData: {
        "mu": reading("monoid-assoc monoid-unit-left monoid-unit-right "
                      "interchange-mult-comult interchange-counit-mult"),
        "eta": reading("monoid-unit-left monoid-unit-right "
                       "interchange-comult-unit interchange-counit-unit"),
        "delta": reading("comonoid-coassoc comonoid-counit-left "
                         "comonoid-counit-right interchange-mult-comult "
                         "interchange-comult-unit"),
        "eps": reading("comonoid-counit-left comonoid-counit-right "
                       "interchange-counit-mult interchange-counit-unit"),
    },
    ModuleData: {
        "action": reading("module-assoc module-unit"),
        "base.mult": reading("module-assoc"),
        "base.unit": reading("module-unit"),
    },
    ComoduleData: {
        "coaction": reading("comodule-coassoc comodule-counit"),
        "base.cocomp": reading("comodule-coassoc"),
        "base.counit": reading("comodule-counit"),
    },
    HopfModuleData: {
        "action": reading("module-assoc module-unit hopf-compat"),
        "coaction": reading("comodule-coassoc comodule-counit hopf-compat"),
        "base.mult": reading("module-assoc hopf-compat assoc unit-left "
                             "unit-right comult-mult counit-mult"),
        "base.unit": reading("module-unit unit-left unit-right comult-unit "
                             "counit-unit"),
        "base.comult": reading("comodule-coassoc hopf-compat coassoc "
                               "counit-left counit-right comult-mult "
                               "comult-unit"),
        "base.counit": reading("comodule-counit counit-left counit-right "
                               "counit-mult counit-unit"),
    },
    GradedHopfData: {
        "mult": reading("graded-assoc graded-unit-left graded-unit-right "
                        "graded-comult-mult graded-counit-mult "
                        "graded-antipode-left graded-antipode-right"),
        "unit": reading("graded-unit-left graded-unit-right "
                        "graded-comult-unit graded-counit-unit "
                        "graded-antipode-left graded-antipode-right"),
        "comult": reading("graded-coassoc graded-counit-left "
                          "graded-counit-right graded-comult-mult "
                          "graded-comult-unit graded-antipode-left "
                          "graded-antipode-right"),
        "counit": reading("graded-counit-left graded-counit-right "
                          "graded-counit-mult graded-counit-unit "
                          "graded-antipode-left graded-antipode-right"),
        "antipode": reading("graded-antipode-left graded-antipode-right"),
    },
}


# (survivors, mutants) of each input's sweep
SURVIVORS = {
    "kz2_dual": (0, 24), "pair2_dual": (0, 22), "bimonoid(kz2)": (0, 20),
    "kz2_regular_module": (14, 32), "kz2_dual_regular_comodule": (14, 32),
    "kz2_regular_hopf_module": (4, 40), "graded_z2_strong": (0, 11),
    "pair3_dual": (0, 57), "bimonoid(pair3)": (0, 48)}


@pytest.mark.parametrize("name", list(SURVIVORS))
def test_every_single_coefficient_mutant(fixture_dir, name):
    assert assert_same_reports_on_single_mutants(
        single_mutant_inputs(fixture_dir)[name]) == SURVIVORS[name]


def cyclic_graded(field, n: int, m: int) -> GradedHopfData:
    """k[Z/nm] graded by Z/n, where s ≠ s⁻¹ for n > 2: the degree-s
    component is spanned by g^(s + n·a) for a < m, at index a."""
    zero, one = field.zero, field.one
    G = tuple(str(s) for s in range(n))
    table = {(str(s), str(t)): str((s + t) % n) for s in range(n)
             for t in range(n)}

    def basis(a):
        return [one if b == a else zero for b in range(m)]
    mult = {(str(s), str(t)): [[basis(((s + n * a + t + n * b)
                                            % (n * m)) // n)
                                for b in range(m)] for a in range(m)]
            for s in range(n) for t in range(n)}
    comult = {s: [[basis(a) if b == a else [zero] * m
                   for b in range(m)] for a in range(m)] for s in G}
    # S(g^k) = g^-k: rows over the degree -s component, columns over s
    antipode = {}
    for s in range(n):
        cols = [((-(s + n * a)) % (n * m)) // n for a in range(m)]
        antipode[str(s)] = [[one if cols[a] == r else zero
                             for a in range(m)] for r in range(m)]
    return GradedHopfData(field, GroupTable(G, table), {s: m for s in G},
                          mult, basis(0), comult,
                          {s: [one] * m for s in G}, antipode)


def test_single_mutants_of_a_z3_grading():
    h = cyclic_graded(QQ, 3, 2)
    assert passes(assert_same_reports(h))
    assert_same_reports_on_single_mutants(h)


def unequal_dims_category(field) -> HopfCatData:
    """A semi-Hopf category whose homs differ in dimension, so that no law
    can mix up the dimensions of its tensor factors unseen: the
    linearization of the category on x and y with A(x,x) = k, A(y,y) and
    A(x,y) spanned by copies of Z/2, composed by the group law, and
    A(y,x) = 0; every basis element is grouplike."""
    X = ("x", "y")
    dims = {("x", "x"): 1, ("y", "y"): 2, ("x", "y"): 2, ("y", "x"): 0}
    zero, one = field.zero, field.one
    mult = {}
    for x in X:
        for y in X:
            for z in X:
                d1, d2, d3 = dims[(x, y)], dims[(y, z)], dims[(x, z)]
                mult[(x, y, z)] = [[[one if k == (i + j) % d3 else zero
                                     for k in range(d3)]
                                    for j in range(d2)] for i in range(d1)]
    comult = {key: [[[one if i == j == k else zero for k in range(d)]
                     for j in range(d)] for i in range(d)]
              for key, d in dims.items()}
    counit = {key: [one] * d for key, d in dims.items()}
    unit = {"x": [one], "y": [one, zero]}
    return HopfCatData(field, X, dims, mult, unit, comult, counit)


UNEQUAL = unequal_dims_category(QQ)
UNEQUAL_INPUTS = {
    "bimonoid": bimonoid_from_category(UNEQUAL),
    "dual": dualize(UNEQUAL),
    "right module": regular_module(UNEQUAL, "right"),
    "left module": regular_module(UNEQUAL, "left"),
    "comodule": regular_comodule(dualize(UNEQUAL)),
    "hopf module": regular_hopf_module(UNEQUAL),
}


@pytest.mark.parametrize("name", sorted(UNEQUAL_INPUTS))
def test_unequal_hom_dims_and_their_single_mutants(name):
    assert verify_structure(UNEQUAL, "semihopf").overall
    obj = UNEQUAL_INPUTS[name]
    assert passes(assert_same_reports(obj))
    assert_same_reports_on_single_mutants(obj)


TAFT4 = {field: fx.taft_four_dim(field) for field in (QQ, GF(5))}
TAFT4_DERIVED = {(field, kind): make(a)
                 for field, a in TAFT4.items()
                 for kind, make in (("dual", dualize),
                                    ("bimonoid", bimonoid_from_category))}
TAFT4_SLOTS = {kind: list(slots(obj, KINDS[type(obj)][2]))
               for (field, kind), obj in TAFT4_DERIVED.items()
               if field == QQ}


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from([QQ, GF(5)]),
       kind=st.sampled_from(["dual", "bimonoid"]),
       edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(-2, 3),
                                st.sampled_from([1, 2])),
                      min_size=1, max_size=3))
def test_taft4_dual_and_bimonoid_mutants(field, kind, edits):
    positions = TAFT4_SLOTS[kind]
    mut = mutate(TAFT4_DERIVED[(field, kind)], [
        positions[pos % len(positions)]
        + (lambda v, n=n, d=d: field.of(n) / field.of(d),)
        for pos, n, d in edits])
    assert_same_reports(mut)
