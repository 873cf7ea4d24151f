"""The weak Hopf verifier against the sampled verifier it replaced.

The two agree record for record on every law but the weak counit law.  That
law is now checked on every basis triple, where the old verifier checked it
only on block-compatible triples and audited the rest under one combined
``weak-counit-audit`` axiom.  So, with the old audit made to cover every
skipped triple, the new per-triple records must be exactly the old per-triple
ones plus each audited failure filed under the law(s) it breaks, and the old
per-triple records must appear among the new ones in the same order.
"""

import copy
import glob
import os
from collections import Counter

from hypothesis import given, settings, strategies as st

from oracles import sampled_verify_weak_hopf

from hopfcat import fixtures as fx
from hopfcat.dual import dualize
from hopfcat.fileformat import load
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


def assert_record_rule(w: WeakHopfData):
    rep = verify_weak_hopf(w)
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


def positions(w: WeakHopfData, tensors=("mult", "comult", "counit")):
    """Every coefficient slot of the named tensors as (name, index path)."""
    n = w.total_dim
    for name in tensors:
        if name in ("mult", "comult"):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        yield name, (i, j, k)
        elif name == "antipode":
            for r in range(n):
                for c in range(n):
                    yield name, (r, c)
        else:
            for i in range(n):
                yield name, (i,)


def mutate(w: WeakHopfData, edits) -> WeakHopfData:
    """A deep copy of ``w`` with each (tensor, path, f) edit applied, where f
    maps the old coefficient to the new one."""
    b = copy.deepcopy(w)
    for name, path, f in edits:
        slot = getattr(b, name)
        for i in path[:-1]:
            slot = slot[i]
        slot[path[-1]] = f(slot[path[-1]])
    return b


def test_every_single_coefficient_mutant_of_pack_pair2(hopf_fixtures):
    w = pack(hopf_fixtures["pair2"])
    slots = list(positions(w))
    assert len(slots) == 132
    failing = 0
    for name, path in slots:
        mut = mutate(w, [(name, path, lambda v: v * 2 if v else QQ.one)])
        failing += not assert_record_rule(mut).overall
    assert failing > 0


PAIR3 = pack(fx.hopf_fixtures(QQ)["pair3"])
PAIR3_SLOTS = list(positions(PAIR3, ("mult", "comult", "counit", "unit",
                                     "antipode")))


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
    for name, path in positions(w, ("mult", "comult", "counit", "unit",
                                    "antipode")):
        for edit in (lambda v: minus_one, lambda v: v + minus_one):
            failing += not assert_record_rule(
                mutate(w, [(name, path, edit)])).overall
    assert failing > 0
