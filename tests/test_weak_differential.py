"""The weak Hopf verifier against the verifiers it replaced.

``oracles.reference_verify_weak_hopf`` is the verifier as it was before each
law's loop was restricted to the instances that nonzero constants reach: the
two must agree record for record, on every input here.

``oracles.sampled_verify_weak_hopf`` is the one before that.  The two agree
record for record on every law but the weak counit law.  That
law is now checked on every basis triple, where the old verifier checked it
only on block-compatible triples and audited the rest under one combined
``weak-counit-audit`` axiom.  So, with the old audit made to cover every
skipped triple, the new per-triple records must be exactly the old per-triple
ones plus each audited failure filed under the law(s) it breaks, and the old
per-triple records must appear among the new ones in the same order.

The mutant sweeps also hold the verifier to the mutation rule: every
single-coefficient mutant of data that verifies fails a law that reads the
tensor it changed.
"""

import glob
import os
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mutants import mutate, slots
from oracles import reference_verify_weak_hopf, sampled_verify_weak_hopf

from hopfcat import fixtures as fx
from hopfcat.dual import dualize
from hopfcat.fileformat import load
from hopfcat.groupoid import disjoint_union, linearize_groupoid, pair_groupoid
from hopfcat.scalars import GF, QQ
from hopfcat.weak import WeakHopfData, pack, pack_dual, verify_weak_hopf

LAWS = ("weak-counit-left", "weak-counit-right")
AUDIT = "weak-counit-audit"


def records(rep):
    return [it.record() for it in rep.items]


def key(record):
    return tuple(tuple(v) if isinstance(v, list) else v
                 for v in record.values())


def per_triple(recs, axioms):
    return [r for r in recs if r["axiom"] in axioms and r["objects"]]


def audited_failures(recs):
    """Each failing audit record as the weak counit law(s) it breaks, read
    from its residual ``eps(hkl)=v split1=v1 split2=v2``."""
    out = []
    for r in per_triple(recs, (AUDIT,)):
        v, v1, v2 = (part.split("=")[1] for part in r["residual"].split())
        out += [dict(r, axiom=law)
                for law, split in zip(LAWS, (v1, v2)) if split != v]
    return out


def assert_same_records(w: WeakHopfData):
    rep = verify_weak_hopf(w)
    assert records(rep) == records(reference_verify_weak_hopf(w))
    return rep


def assert_record_rule(w: WeakHopfData):
    rep = assert_same_records(w)
    new = records(rep)
    old = records(sampled_verify_weak_hopf(w, audit_samples=w.total_dim ** 3))

    def others(recs):
        return [r for r in recs if r["axiom"] not in LAWS + (AUDIT,)]

    assert others(new) == others(old)
    assert not [r for r in new if r["axiom"] == AUDIT]

    new_triples = per_triple(new, LAWS)
    old_triples = per_triple(old, LAWS)
    remaining = iter(new_triples)
    assert all(r in remaining for r in old_triples)
    assert Counter(map(key, new_triples)) \
        == Counter(map(key, old_triples + audited_failures(old)))

    for law in LAWS:
        ok = not per_triple(new, (law,))
        assert [r for r in new if r["axiom"] == law and not r["objects"]] \
            == [{"axiom": law, "objects": [], "ok": ok, "witness": None,
                 "residual": "", "failures": 0 if ok else 1,
                 "required": True}]

    if rep.overall:
        assert sampled_verify_weak_hopf(w).overall
    return rep


def test_pack_and_pack_dual_of_every_fixture_with_an_antipode(fixture_dir):
    paths = []
    for path in sorted(glob.glob(os.path.join(fixture_dir, "*.hc"))):
        with open(path) as fh:
            text = fh.read()
        if "kind hopf-category\n" in text and "antipode yes\n" in text:
            paths.append(path)
    assert len(paths) == 11
    for path in paths:
        a = load(path)
        assert_record_rule(pack(a))
        assert_record_rule(pack_dual(dualize(a)))


def test_pack_and_pack_dual_of_taft4_over_gf5():
    a = fx.taft_four_dim(GF(5))
    assert assert_record_rule(pack(a)).overall
    assert assert_record_rule(pack_dual(dualize(a))).overall


# the laws whose sides read each tensor
READS = {
    "mult": {"assoc", "unit", "comult-mult", "weak-counit-left",
             "weak-counit-right", "weak-unit-left", "weak-unit-right",
             "antipode-target", "antipode-source", "antipode-full"},
    "comult": {"coassoc", "counit", "comult-mult", "weak-counit-left",
               "weak-counit-right", "weak-unit-left", "weak-unit-right",
               "antipode-target", "antipode-source", "antipode-full"},
    "counit": {"counit", "weak-counit-left", "weak-counit-right",
               "antipode-target", "antipode-source"},
    "unit": {"unit", "weak-unit-left", "weak-unit-right",
             "antipode-target", "antipode-source"},
    "antipode": {"antipode-target", "antipode-source", "antipode-full"},
}


def doubled_or_one(field):
    return lambda v: v * 2 if v else field.one


def assert_every_mutant_fails_a_law_that_reads_it(w: WeakHopfData, verify):
    """Every doubled-or-one single-coefficient mutant of ``w`` fails, and
    among its failing laws is one that reads the tensor it changed."""
    every = list(slots(w, READS))
    for slot in every:
        rep = verify(mutate(w, [slot + (doubled_or_one(w.field),)]))
        failed = {it.axiom for it in rep.failed()}
        assert failed & READS[slot[0]], (slot, sorted(failed))
    return len(every)


def test_every_single_coefficient_mutant_of_pack_pair2(hopf_fixtures):
    w = pack(hopf_fixtures["pair2"])
    assert assert_every_mutant_fails_a_law_that_reads_it(
        w, assert_record_rule) == 152


@pytest.mark.parametrize("name,slots", [("pack_dual(pair2)", 152),
                                        ("pack(taft4)", 152),
                                        ("disjoint_dual_packed", 69)])
def test_every_single_coefficient_mutant_fails_a_law_that_reads_it(
        hopf_fixtures, fixture_dir, name, slots):
    if name == "disjoint_dual_packed":
        w = load(os.path.join(fixture_dir, "disjoint_dual_packed.hc"))
    elif name == "pack(taft4)":
        w = pack(hopf_fixtures["taft4"])
    else:
        w = pack_dual(dualize(hopf_fixtures["pair2"]))
    assert verify_weak_hopf(w).overall
    assert assert_every_mutant_fails_a_law_that_reads_it(
        w, verify_weak_hopf) == slots


def groupoid_category(*sizes):
    """The linearized union of pair groupoids on ``sizes`` objects."""
    g = None
    for c, size in enumerate(sizes):
        p = pair_groupoid(tuple(f"{chr(97 + c)}{i}" for i in range(size)))
        g = p if g is None else disjoint_union(g, p)
    return linearize_groupoid(g, QQ)


def test_the_packings_the_benchmark_builds_and_the_weak_fixtures(
        fixture_dir):
    # pack and pack_dual of the pair groupoid on 3 objects and of the unions
    # 1+2, 2+2, 1+3, 2+3 and 1+1+2, as the many-objects workload makes them
    for sizes in ((3,), (1, 2), (2, 2), (1, 3), (2, 3), (1, 1, 2)):
        a = groupoid_category(*sizes)
        assert assert_same_records(pack(a)).overall
        assert assert_same_records(pack_dual(dualize(a))).overall
    for name in ("pair3_packed.hc", "disjoint_dual_packed.hc"):
        assert assert_same_records(load(os.path.join(fixture_dir, name)))


@pytest.mark.parametrize("name", ["pack(pair2)", "pack_dual(pair2)",
                                  "pack(taft4)"])
def test_doubled_or_one_and_minus_one_mutants_over_gf5(name):
    f = GF(5)
    a = fx.hopf_fixtures(f)["taft4" if "taft4" in name else "pair2"]
    w = pack_dual(dualize(a)) if name.startswith("pack_dual") else pack(a)
    minus_one = f.of(4)
    failing = 0
    for slot in slots(w, READS):
        for edit in (doubled_or_one(f), lambda v: minus_one):
            failing += not assert_same_records(
                mutate(w, [slot + (edit,)])).overall
    assert failing > 0


PAIR3 = pack(fx.hopf_fixtures(QQ)["pair3"])
PAIR3_SLOTS = list(slots(PAIR3, READS))


@settings(max_examples=25, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, len(PAIR3_SLOTS) - 1),
                                st.integers(-2, 3), st.sampled_from([1, 2])),
                      min_size=1, max_size=3))
def test_pack_pair3_mutants(edits):
    assert_record_rule(mutate(PAIR3, [
        PAIR3_SLOTS[pos] + (lambda v, n=n, d=d: QQ.of(n) / QQ.of(d),)
        for pos, n, d in edits]))


def test_wrapping_mutants_of_pack_taft4_over_gf5():
    # each coefficient set to p-1 = -1, or lowered by one, so that residuals
    # and sums wrap around p
    w = pack(fx.taft_four_dim(GF(5)))
    minus_one = GF(5).of(4)
    failing = 0
    for slot in slots(w, READS):
        for edit in (lambda v: minus_one, lambda v: v + minus_one):
            failing += not assert_record_rule(
                mutate(w, [slot + (edit,)])).overall
    assert failing > 0
