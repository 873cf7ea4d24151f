"""Structures that hold one tensor object under several keys.

The reader gives every key of a slot whose shape and records are equal one
shared tensor, the rewrites and groupoid linearization keep or make such
sharing, and every per-key pass (the shape check, the sparse readers,
interning, strictness's ranks, the writer where tensors repeat) does its
work once per distinct object, keyed by its ``id`` (see ``schema``).  Each
verifier must then answer on the data as read exactly as on a copy in
which every key holds a tensor of its own: the same records, the same
exceptions, the same number of ``check_map_equal`` calls, and the same
bytes from the writer.
"""

import copy
import glob
import os
from itertools import product

import pytest

from mutants import mutate
from test_instance_differential import VERIFY, outcomes
from test_rescaled_differential import CATEGORY, DERIVED

from hopfcat.core import (HopfCatData, check_strictness, transform,
                          verify_structure)
from hopfcat.dual import dualize, undualize
from hopfcat.fileformat import load, parse, save, serialize
from hopfcat.groupoid import linearize_groupoid, pair_groupoid
from hopfcat.schema import MalformedDataError, zeros
from hopfcat.scalars import QQ
from hopfcat.weak import WeakHopfData, verify_weak_hopf

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def unshared(obj):
    """A copy of ``obj``, its base included, in which each key of each
    slot holds its own ``copy.deepcopy`` of its tensor."""
    out = copy.copy(obj)
    for slot in type(obj).layout.slots:
        data = getattr(obj, slot.tag)
        if data is not None:
            setattr(out, slot.tag, {key: copy.deepcopy(t)
                                    for key, t in data.items()}
                    if slot.keys else copy.deepcopy(data))
    if getattr(obj, "base", None) is not None:
        out.base = unshared(obj.base)
    return out


def tensors(obj) -> list:
    """Every tensor object that a key of ``obj`` holds, one per key."""
    out = []
    for slot in type(obj).layout.slots:
        data = getattr(obj, slot.tag)
        if data is not None:
            out += list(data.values()) if slot.keys else [data]
    return out


def answers(obj, monkeypatch):
    """The records of every verifier on ``obj`` (or what it raised) and the
    number of ``check_map_equal`` calls they made; strictness on
    hopf-category data, which counts no calls."""
    if isinstance(obj, WeakHopfData):
        return [it.record() for it in verify_weak_hopf(obj).items], 0
    records, calls = outcomes(obj, monkeypatch)
    if isinstance(obj, HopfCatData):
        try:
            records.append([it.record() for it in check_strictness(obj).items])
        except Exception as exc:    # noqa: BLE001 -- compared
            records.append((type(exc), str(exc)))
    return records, calls


def files():
    kinds = {cls.layout.name for cls in (HopfCatData, WeakHopfData, *VERIFY)}
    out = []
    for path in sorted(glob.glob(os.path.join(FIXTURE_DIR, "*.hc"))):
        with open(path) as fh:
            if next(line for line in fh if line.startswith("kind ")) \
                    .split()[1] in kinds:
                out.append(os.path.basename(path))
    return out


def pair(n: int):
    return linearize_groupoid(pair_groupoid(tuple(f"o{i}" for i in range(n))),
                              QQ)


@pytest.mark.parametrize("name", files())
def test_each_fixture_answers_as_its_unshared_copy(name, monkeypatch):
    obj = load(os.path.join(FIXTURE_DIR, name))
    alone = unshared(obj)
    assert len({id(t) for t in tensors(alone)}) == len(tensors(alone))
    assert answers(obj, monkeypatch) == answers(alone, monkeypatch)
    assert serialize(obj) == serialize(alone)


@pytest.mark.parametrize("n", range(4, 8))
def test_each_loaded_pair_groupoid_answers_as_its_unshared_copy(
        n, tmp_path, monkeypatch):
    save(str(tmp_path / "pair.hc"), pair(n))
    obj = load(str(tmp_path / "pair.hc"))
    # one tensor per slot, since every constant is 1 and every hom is a line
    assert len({id(t) for t in tensors(obj)}) == 5
    alone = unshared(obj)
    assert answers(obj, monkeypatch) == answers(alone, monkeypatch)
    assert serialize(obj) == serialize(alone)


@pytest.mark.parametrize("name", ["category"] + sorted(DERIVED))
def test_each_rescaled_input_answers_as_its_unshared_copy(name, monkeypatch):
    obj = CATEGORY if name == "category" else DERIVED[name]
    assert answers(obj, monkeypatch) == answers(unshared(obj), monkeypatch)


# a file that need not verify: d(a,a) = d(a,b) = d(b,a) = 1, d(b,b) = 2
TEXT = """format 1
kind hopf-category
field q
objects a b
antipode no
dim a a 1
dim a b 1
dim b a 1
dim b b 2
mult a a a 0 0 0 1
mult a b a 0 0 0 1
mult b a a 0 0 0 1/1
mult a b b 0 0 0 1
comult a b 0 0 0 0
comult b b 1 1 1 1
comult b b 0 0 0 1
counit a a 0 1
counit a b 0 1
counit b a 0 3
"""


def test_equal_records_under_equal_shapes_share_one_tensor():
    a = parse(TEXT)
    # (a,a,a), (a,b,a) and (b,a,a) have shape (1,1,1): equal records as
    # text share one tensor, and 1/1 is another text
    assert a.mult[("a", "a", "a")] is a.mult[("a", "b", "a")]
    assert a.mult[("b", "a", "a")] is not a.mult[("a", "a", "a")]
    assert a.mult[("b", "a", "a")] == a.mult[("a", "a", "a")]
    # the same record under (a,b,b), of shape (1,2,1), is a tensor of its
    # own
    assert a.mult[("a", "b", "b")] is not a.mult[("a", "a", "a")]
    assert a.mult[("a", "b", "b")] == [[[1], [0]]]
    # the comultiplications of shape (1,1,1) have no nonzero record, the
    # explicit zero at (a,b) included; (b,b) has its own shape
    assert a.comult[("a", "a")] is a.comult[("a", "b")] \
        is a.comult[("b", "a")]
    assert a.comult[("b", "b")] is not a.comult[("a", "a")]
    # distinct records are distinct tensors
    assert a.counit[("a", "a")] is a.counit[("a", "b")]
    assert a.counit[("b", "a")] is not a.counit[("a", "a")]
    # two zero units of the shapes (1,) and (2,)
    assert a.unit["a"] is not a.unit["b"]
    assert serialize(a) == serialize(unshared(a))
    assert parse(serialize(a)) == a


def test_a_shared_tensor_under_a_key_of_another_shape_is_malformed():
    a = parse(TEXT)
    a.validate_shape()
    # the (1,1,1) tensor of (a,a,a), placed at (b,b,b) of shape (2,2,2),
    # after it has fitted at (a,a,a) and (a,b,a)
    mult = dict(a.mult)
    mult[("b", "b", "b")] = mult[("a", "a", "a")]
    bad = HopfCatData(a.field, a.objects, a.dims, mult, a.unit, a.comult,
                      a.counit)
    with pytest.raises(MalformedDataError,
                       match=r"^mult tensor at \(b,b,b\) malformed$"):
        bad.validate_shape()


def test_one_empty_tensor_stands_for_every_shape_with_a_zero_first_factor():
    X = ("a", "b")
    dims = {("a", "a"): 1, ("a", "b"): 0, ("b", "a"): 0, ("b", "b"): 2}
    empty = []

    def table(keys, shape):
        return {key: zeros(QQ.zero, shape(key)) or empty for key in keys}
    mult = table(product(X, repeat=3), lambda k: (
        dims[k[0], k[1]], dims[k[1], k[2]], dims[k[0], k[2]]))
    comult = table(product(X, repeat=2), lambda k: (dims[k],) * 3)
    counit = table(product(X, repeat=2), lambda k: (dims[k],))
    unit = {x: zeros(QQ.zero, (dims[x, x],)) for x in X}
    a = HopfCatData(QQ, X, dims, mult, unit, comult, counit)
    # (a,b,a), (a,b,b), (b,a,a) and (b,a,b): the shapes (0,0,1), (0,2,0),
    # (0,0,0) and (0,0,2), and one object
    assert [key for key, t in mult.items() if t is empty] == [
        ("a", "b", "a"), ("a", "b", "b"), ("b", "a", "a"), ("b", "a", "b")]
    a.validate_shape()


def test_an_empty_matrix_has_the_columns_of_its_key(monkeypatch):
    # A(b,a) and A(c,a) are zero, A(a,b) a line and A(a,c) a plane, so
    # S(a,b): A(a,b) → A(b,a) and S(a,c) are stored as [] with one and two
    # columns; the verifiers read one [] as a matrix of each width
    X = ("a", "b", "c")
    dims = {key: 0 for key in product(X, repeat=2)}
    dims.update({(x, x): 1 for x in X})
    dims.update({("a", "b"): 1, ("a", "c"): 2})
    one, empty = QQ.one, []
    a = HopfCatData(
        QQ, X, dims,
        {(x, y, z): zeros(QQ.zero, (dims[x, y], dims[y, z], dims[x, z]))
         for x, y, z in product(X, repeat=3)},
        {x: [one] for x in X},
        {key: zeros(QQ.zero, (d,) * 3) for key, d in dims.items()},
        {key: [one] * d for key, d in dims.items()},
        {(x, y): zeros(QQ.zero, (dims[y, x], dims[x, y])) or empty
         for x, y in dims})
    assert a.antipode[("a", "b")] is a.antipode[("a", "c")] is empty
    assert answers(a, monkeypatch) == answers(unshared(a), monkeypatch)


def test_a_mutant_of_a_shared_table_changes_one_key(tmp_path):
    save(str(tmp_path / "pair.hc"), pair(4))
    a = load(str(tmp_path / "pair.hc"))
    before = copy.deepcopy(a)
    key = ("o0", "o1", "o2")
    mut = mutate(a, [("mult", key, (0, 0, 0), lambda v: 2 * v)])
    assert [k for k in a.mult if mut.mult[k] != a.mult[k]] == [key]
    assert mut.mult[key] == [[[2]]]
    assert a == before      # the shared tensor was not written into


@pytest.mark.parametrize("own", [1, 31, 32, 33, 63])
def test_a_slot_of_shared_and_own_tensors_writes_its_copy(own):
    # 64 compositions of the pair groupoid on 4 objects, ``own`` of them a
    # tensor of their own and the rest one shared [[[1]]]: the writer
    # walks each distinct tensor once up to 32 distinct (the shared one
    # and 31 own), and every key's tensor past that
    a = pair(4)
    keys = list(a.mult)[:own]
    mut = mutate(a, [("mult", key, (0, 0, 0), lambda v: 2 * v)
                     for key in keys])
    assert len({id(t) for t in mut.mult.values()}) == own + (own < 64)
    assert serialize(mut) == serialize(unshared(mut))
    assert parse(serialize(mut)) == mut


@pytest.mark.parametrize("mode", ["opposite", "coopposite", "opcop"])
def test_a_rewrite_of_shared_tensors_is_that_of_their_copies(mode):
    # the rescaled category has a tensor of its own at almost every key,
    # and an antipode S(x,y) = λ_xy/λ_yx whose inverse differs per key
    a = pair(4)
    for obj in (CATEGORY, a, dualize(a)):
        if isinstance(obj, HopfCatData):
            out = transform(obj, mode)
            assert verify_structure(out).overall
            assert out == transform(unshared(obj), mode)
        else:
            assert undualize(obj) == undualize(unshared(obj))
    assert dualize(CATEGORY) == dualize(unshared(CATEGORY))


def test_the_rewrites_keep_the_sharing():
    # linearization builds one tensor per distinct (shape, ones): every
    # composition and comultiplication is one [[[1]]], the unit and the
    # counits one [1], and the antipodes one [[1]]; a rewrite re-indexes
    # each once, so each of its slots holds one tensor
    a = pair(5)
    assert len({id(t) for t in tensors(a)}) == 3
    for out in (dualize(a), transform(a, "opposite"), transform(a, "opcop"),
                undualize(dualize(a))):
        for slot in type(out).layout.slots:
            table = getattr(out, slot.tag)
            assert len({id(t) for t in table.values()}) == 1, slot.tag
