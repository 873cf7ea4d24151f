"""Every verifier that loops over object tuples, on data whose tensors
differ from one objects tuple to the next.

On the linearized pair groupoid every structure constant is 1, so after
interning there is one tensor per slot, and a verifier that reads, say,
``mult[x][z][y]`` where the law needs ``mult[x][y][z]`` writes the same
records.  In the basis f_xy = λ_xy·e_xy, with a distinct λ for each pair,
almost every tensor is its own: such a mix-up changes the records, and the
dense verifiers (``oracles.dense_*``), the hashed instance memo against
``oracles.ReferenceInstances``, and the mutation net see it.
"""

from fractions import Fraction
from itertools import product

import pytest

from mutants import mutate, slots
from test_dense_differential import READS as CATEGORY_READS
from test_dense_differential import assert_same_reports as same_category
from test_dense_differential import doubled_or_one
from test_instance_differential import outcomes
from test_verifier_differential import (assert_same_reports,
                                        assert_same_reports_on_single_mutants,
                                        passes)

from oracles import ReferenceInstances

from hopfcat.core import HopfCatData, verify_structure
from hopfcat.dual import dualize
from hopfcat.duoidal import bimonoid_from_category
from hopfcat.fundamental import regular_hopf_module
from hopfcat.graded import GradedHopfData, GroupTable
from hopfcat.modules import regular_comodule, regular_module
from hopfcat.report import Instances
from hopfcat.scalars import QQ
from hopfcat.sparse import columns, tensor3, vector

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def scales(keys) -> dict:
    """A distinct prime λ for each key."""
    return {key: Fraction(p) for key, p in zip(keys, PRIMES)}


def rescaled_pair_groupoid(n: int) -> HopfCatData:
    """The pair groupoid on n objects over Q in the basis f_xy = λ_xy·e_xy:
    f_xy·f_yz = (λ_xy λ_yz / λ_xz) f_xz, Δ(f_xy) = f_xy⊗f_xy / λ_xy,
    ε(f_xy) = λ_xy, S(f_xy) = (λ_xy / λ_yx) f_yx and 1_x = f_xx / λ_xx."""
    X = tuple(f"o{i}" for i in range(n))
    lam = scales(product(X, repeat=2))
    return HopfCatData(
        QQ, X, {key: 1 for key in lam},
        {(x, y, z): [[[lam[(x, y)] * lam[(y, z)] / lam[(x, z)]]]]
         for x, y, z in product(X, repeat=3)},
        {x: [1 / lam[(x, x)]] for x in X},
        {key: [[[1 / v]]] for key, v in lam.items()},
        {key: [v] for key, v in lam.items()},
        {(x, y): [[lam[(x, y)] / lam[(y, x)]]] for x, y in lam})


def rescaled_cyclic_graded(n: int) -> GradedHopfData:
    """k[Z/n] graded by Z/n, in the basis f_s = λ_s·e_s: the same constants
    as ``rescaled_pair_groupoid`` with λ indexed by degrees."""
    G = tuple(str(s) for s in range(n))
    lam = scales(G)
    mul = {(str(s), str(t)): str((s + t) % n) for s in range(n)
           for t in range(n)}
    return GradedHopfData(
        QQ, GroupTable(G, mul), {s: 1 for s in G},
        {(s, t): [[[lam[s] * lam[t] / lam[st]]]] for (s, t), st in mul.items()},
        [1 / lam["0"]],
        {s: [[[1 / lam[s]]]] for s in G},
        {s: [lam[s]] for s in G},
        {s: [[lam[s] / lam[str(-int(s) % n)]]] for s in G})


CATEGORY = rescaled_pair_groupoid(3)
DERIVED = {
    "dual": dualize(CATEGORY),
    "bimonoid": bimonoid_from_category(CATEGORY),
    "right module": regular_module(CATEGORY, "right"),
    "left module": regular_module(CATEGORY, "left"),
    "comodule": regular_comodule(dualize(CATEGORY)),
    "hopf module": regular_hopf_module(CATEGORY),
    "graded": rescaled_cyclic_graded(3),
}


def test_the_tensors_differ_from_one_tuple_to_the_next():
    # mult(x,y,z) is λ_xx when x = y and λ_yy when y = z: 3 tensors for the
    # 15 such triples, and one of its own for each of the other 12; S(x,x)
    # is 1 for every x
    inst = Instances(None, QQ)
    for name, read, distinct in (("mult", tensor3, 15),
                                 ("comult", tensor3, 9),
                                 ("counit", vector, 9),
                                 ("antipode", columns, 7)):
        cols = CATEGORY.dims if read is columns else None
        view = inst.view(getattr(CATEGORY, name), read, cols)
        assert len({id(t) for t in leaves(view)}) == distinct, name


def leaves(view: dict):
    """The entries of a view, nested one label at a time."""
    for entry in view.values():
        yield from leaves(entry) if type(entry) is dict else (entry,)


def test_the_category_and_its_mutants():
    assert verify_structure(CATEGORY).overall
    same_category(CATEGORY)
    bump = doubled_or_one(QQ)
    every = list(slots(CATEGORY, CATEGORY_READS))
    for slot in every:
        mut = mutate(CATEGORY, [slot + (bump,)])
        same_category(mut, levels=("hopf",))
        failed = {it.axiom for it in verify_structure(mut).failed()}
        assert failed & CATEGORY_READS[slot[0]], (slot, sorted(failed))
    assert len(every) == 27 + 3 + 3 * 9


# (survivors, mutants) of each input's sweep: a module reads neither the
# comultiplication, the counit nor the antipode of its base, a comodule
# neither the algebras, units nor antipode of its dual base, and a Hopf
# module not the antipode of its base
SURVIVORS = {"dual": (0, 57), "bimonoid": (0, 48), "right module": (27, 84),
             "left module": (27, 84), "comodule": (27, 84),
             "hopf module": (9, 93), "graded": (0, 19)}


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_each_derived_input_and_its_mutants(name):
    obj = DERIVED[name]
    assert passes(assert_same_reports(obj))
    assert assert_same_reports_on_single_mutants(obj) == SURVIVORS[name]


@pytest.mark.parametrize("name", ["category", "graded"])
def test_identity_keys_hit_where_value_keys_did(name, monkeypatch):
    obj = CATEGORY if name == "category" else DERIVED["graded"]
    records, compared = outcomes(obj, monkeypatch)
    monkeypatch.setattr(Instances, "check", ReferenceInstances.check)
    assert (records, compared) == outcomes(obj, monkeypatch)
