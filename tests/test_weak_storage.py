"""Sparse weak Hopf storage against the nested lists it replaced.

``WeakHopfData`` holds each tensor as a dict of its nonzero constants,
keyed by record-order index tuples.  ``oracles.reference_pack`` and
``reference_pack_dual`` build the nested lists that packing built before,
``oracles.reference_parse`` reads a weak file into them and
``oracles.reference_serialize`` writes them.  Packing, reading and writing
must agree with them byte for byte on every hopf-category and dual fixture,
the pair groupoids on 2 to 7 objects, the six unions that the
``many-objects`` benchmark packs and the rescaled pair groupoids, whose
constants differ from one block to the next.

Malformed sparse data is a ``MalformedDataError`` (exit 2 from ``verify``),
never a traceback; a stored zero is skipped as a zero cell is; and packing
the 8-object pair groupoid stores exactly its nonzero constants.
"""

import copy
import glob
import os

import pytest

from mutants import mutate, slots
from oracles import (dense_weak, reference_counital_maps, reference_dualize,
                     reference_pack, reference_pack_dual, reference_parse,
                     reference_serialize)
from test_rescaled_differential import rescaled_pair_groupoid
from test_weak_differential import groupoid_category

from hopfcat import cli, fileformat
from hopfcat.core import MalformedDataError, MissingAntipodeError
from hopfcat.dual import DualHopfCatData, dualize
from hopfcat.fileformat import load, parse, serialize
from hopfcat.groupoid import linearize_groupoid, pair_groupoid
from hopfcat.scalars import GF, QQ
from hopfcat.weak import (WeakHopfData, counital_source, counital_target,
                          pack, pack_dual, verify_weak_hopf)


def records(rep):
    return [it.record() for it in rep.items]


def in_record_order(w: WeakHopfData) -> bool:
    return all(list(t) == sorted(t) for t in (
        w.mult, w.unit, w.comult, w.counit, w.antipode or {}))


def assert_as_before(label, packing, reference, src):
    """``packing(src)`` writes the bytes that ``reference(src)`` writes, and
    the reader and the dense one read them back as the same constants.
    (The bytes are compared rather than the nested lists: a cell-by-cell
    ``==`` of every zero is most of the time of a dense comparison, and
    ``test_reshape_differential`` makes that one on its inputs.)"""
    try:
        w = packing(src)
    except MissingAntipodeError as e:
        with pytest.raises(MissingAntipodeError, match=str(e)):
            reference(src)
        return 0
    text = serialize(w)
    assert text == reference_serialize(reference(src)), label
    back = parse(text)
    assert back == w and in_record_order(back), label
    assert serialize(back) == text, label
    assert reference_serialize(reference_parse(text)) == text, label
    return 1


def sources(fixture_dir):
    """(label, hopf-category or dual data) of every fixture of either kind,
    the pair groupoids on 2 to 7 objects, the unions the benchmark packs
    and the rescaled pair groupoids on 2 to 4 objects."""
    out = []
    for path in sorted(glob.glob(os.path.join(fixture_dir, "*.hc"))):
        with open(path) as fh:
            kind = next(line for line in fh if line.startswith("kind "))
        if kind.split()[1] in ("hopf-category", "dual-hopf-category"):
            out.append((os.path.basename(path), load(path)))
    out += [(f"pair{n}", linearize_groupoid(pair_groupoid(
        tuple(f"o{i}" for i in range(n))), QQ)) for n in range(2, 8)]
    out += [(f"union{sizes}", groupoid_category(*sizes)) for sizes in (
        (3,), (1, 2), (2, 2), (1, 3), (2, 3), (1, 1, 2))]
    out += [(f"rescaled{n}", rescaled_pair_groupoid(n)) for n in (2, 3, 4)]
    return out


def test_packing_reading_and_writing_match_the_dense_layout(fixture_dir):
    packed = 0
    for label, src in sources(fixture_dir):
        if isinstance(src, DualHopfCatData):
            packed += assert_as_before(label, pack_dual, reference_pack_dual,
                                       src)
            continue
        packed += assert_as_before(label, pack, reference_pack, src)
        packed += assert_as_before(label, pack_dual, reference_pack_dual,
                                   reference_dualize(src))
    assert packed == 54


def test_counital_maps_match_the_reference(fixture_dir):
    # on every basis element of every packing that has an antipode
    packed = 0
    for label, src in sources(fixture_dir):
        if isinstance(src, DualHopfCatData):
            cases = ((pack_dual, src),)
        else:
            cases = ((pack, src), (pack_dual, dualize(src)))
        for packing, arg in cases:
            try:
                w = packing(arg)
            except MissingAntipodeError:
                continue
            packed += 1
            eps_t, eps_s = reference_counital_maps(w)
            for i in range(w.total_dim):
                e_i = {i: w.field.one}
                assert counital_target(w, e_i) == eps_t(e_i), (label, i)
                assert counital_source(w, e_i) == eps_s(e_i), (label, i)
    assert packed == 54


def pair2_packed() -> WeakHopfData:
    return pack(linearize_groupoid(pair_groupoid(("a", "b")), QQ))


BAD_KEYS = [("mult", (0, 0)), ("mult", (4, 0, 0)), ("comult", (0, -1, 0)),
            ("unit", ("0",)), ("counit", (0.5,)), ("antipode", (0, 0, 0)),
            ("antipode", (True, 0)), ("mult", 0), ("unit", None)]


@pytest.mark.parametrize("tag, key", BAD_KEYS)
def test_a_malformed_key_is_a_shape_error(tmp_path, monkeypatch, tag, key):
    # a key of the wrong length, an index past total_dim or below 0, or an
    # index that is no int
    w = pair2_packed()
    bad = dict(getattr(w, tag))
    bad[key] = QQ.one
    setattr(w, tag, bad)
    with pytest.raises(MalformedDataError, match=tag):
        w.validate_shape()
    with pytest.raises(MalformedDataError, match=tag):
        verify_weak_hopf(w)
    path = tmp_path / "w.hc"
    path.write_text(serialize(pair2_packed()))
    monkeypatch.setattr(fileformat, "load", lambda p: w)
    assert cli.main(["--quiet", "verify", str(path)]) == 2


def test_a_tensor_that_is_not_a_dict_is_a_shape_error():
    w = pair2_packed()
    w.mult = dense_weak(w).mult
    with pytest.raises(MalformedDataError, match="mult"):
        w.validate_shape()


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_a_stored_zero_is_skipped(field):
    # and keys out of record order are written in it
    a = linearize_groupoid(pair_groupoid(("a", "b")), field)
    w, z = pack(a), pack(a)
    # e_0·e_3 = 0: the blocks (a,a) and (b,b) do not compose
    z.mult = {(0, 3, 0): field.zero, **dict(reversed(z.mult.items())),
              (3, 0, 1): field.of(0)}
    z.antipode = {**z.antipode, (1, 1): field.zero}
    z.validate_shape()
    assert serialize(z) == serialize(w)
    assert records(verify_weak_hopf(z)) == records(verify_weak_hopf(w))
    text = serialize(w).replace("\nmult 0 0 0 1\n",
                                "\nmult 0 0 0 1\nmult 0 3 0 0\n")
    assert parse(text) == w


def test_a_mutant_of_sparse_data_replaces_the_tensor():
    # a missing index reads as zero, a new zero drops the index, and the
    # input keeps its own dicts and values
    w = pair2_packed()
    before = copy.deepcopy(w)
    seen, seven = [], QQ.of(7)
    m = mutate(w, [("mult", None, (0, 3, 0),
                    lambda v: seen.append(v) or seven),
                   ("mult", None, (0, 0, 0), lambda v: v - v)])
    assert seen == [QQ.zero] and w == before and m.mult is not w.mult
    assert m.mult == {**{k: v for k, v in w.mult.items() if k != (0, 0, 0)},
                      (0, 3, 0): seven}
    assert len(list(slots(w, ["mult", "antipode"]))) == 4 ** 3 + 4 ** 2


@pytest.mark.parametrize("packing", [pack, lambda a: pack_dual(dualize(a))],
                         ids=["pack", "pack_dual"])
def test_packing_8_objects_stores_only_the_nonzero_constants(packing):
    n = 8
    w = packing(linearize_groupoid(pair_groupoid(
        tuple(f"o{i}" for i in range(n))), QQ))
    assert w.total_dim == n * n
    # pack: e_xy·e_yz = e_xz, Δ(e_xy) = e_xy⊗e_xy, 1 on the n diagonal
    # blocks; pack_dual swaps the roles of the products and coproducts
    products, units = (n ** 3, n) if packing is pack else (n * n, n * n)
    coproducts, counits = (n * n, n * n) if packing is pack else (n ** 3, n)
    assert (len(w.mult), len(w.unit), len(w.comult), len(w.counit),
            len(w.antipode)) == (products, units, coproducts, counits, n * n)
    text = serialize(w)
    back = parse(text)
    assert back == w and serialize(back) == text
    assert verify_weak_hopf(back).overall
