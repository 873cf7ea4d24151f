import importlib.util
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcat.dual import dualize
from hopfcat.duoidal import bimonoid_from_category
from hopfcat.fileformat import (ParseError, digest, load, parse, save,
                                serialize)
from hopfcat.fixtures import (disjoint_union_groupoid, group_algebra,
                              pair_groupoid_3, strongly_graded_z2,
                              taft_four_dim)
from hopfcat.fundamental import regular_hopf_module
from hopfcat.modules import regular_comodule, regular_module
from hopfcat.scalars import GF, QQ
from hopfcat.weak import pack


def test_roundtrip_every_hopf_fixture(hopf_fixtures):
    for a in hopf_fixtures.values():
        text = serialize(a)
        again = parse(text)
        assert again == a
        assert serialize(again) == text


def test_make_fixtures_reproduces_the_bundled_files(fixture_dir, tmp_path):
    script = os.path.join(fixture_dir, "..", "scripts", "make_fixtures.py")
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    make_fixtures.main(str(tmp_path))
    written = sorted(os.listdir(tmp_path))
    assert written == sorted(os.listdir(fixture_dir))
    for name in written:
        with open(tmp_path / name, "rb") as fresh, \
                open(os.path.join(fixture_dir, name), "rb") as bundled:
            assert fresh.read() == bundled.read(), name


def test_roundtrip_other_kinds(hopf_fixtures):
    from hopfcat.weak import pack_dual
    for obj in (dualize(hopf_fixtures["taft4"]), pack(hopf_fixtures["pair3"]),
                pack_dual(dualize(hopf_fixtures["disjoint"])),
                pair_groupoid_3(), disjoint_union_groupoid(),
                strongly_graded_z2(QQ),
                bimonoid_from_category(hopf_fixtures["kz2"])):
        assert parse(serialize(obj)) == obj


def test_roundtrip_prime_field():
    a = taft_four_dim(GF(7))
    assert parse(serialize(a)) == a
    assert "field fp:7" in serialize(a)


def test_module_kinds_resolve_base(tmp_path, hopf_fixtures):
    a = hopf_fixtures["kz2"]
    save(str(tmp_path / "kz2.hc"), a)
    m = regular_module(a, "right")
    m._base_name = "kz2"
    save(str(tmp_path / "m.hc"), m)
    assert load(str(tmp_path / "m.hc")) == m

    hm = regular_hopf_module(a)
    hm._base_name = "kz2"
    save(str(tmp_path / "hm.hc"), hm)
    assert load(str(tmp_path / "hm.hc")) == hm

    c = dualize(a)
    save(str(tmp_path / "c.hc"), c)
    cm = regular_comodule(c)
    cm._base_name = "c"
    save(str(tmp_path / "cm.hc"), cm)
    assert load(str(tmp_path / "cm.hc")) == cm


def test_missing_base_rejected(tmp_path, hopf_fixtures):
    m = regular_module(hopf_fixtures["kz2"], "right")
    m._base_name = "nowhere"
    save(str(tmp_path / "m.hc"), m)
    with pytest.raises(ParseError):
        load(str(tmp_path / "m.hc"))


def test_comodule_base_kind_checked(tmp_path, hopf_fixtures):
    a = hopf_fixtures["kz2"]
    save(str(tmp_path / "base.hc"), a)   # plain category, not a dual one
    c = dualize(a)
    cm = regular_comodule(c)
    cm._base_name = "base"
    save(str(tmp_path / "cm.hc"), cm)
    with pytest.raises(ParseError):
        load(str(tmp_path / "cm.hc"))


def test_save_is_atomic_and_deterministic(tmp_path, hopf_fixtures):
    p = str(tmp_path / "a.hc")
    save(p, hopf_fixtures["taft4"])
    first = open(p).read()
    save(p, hopf_fixtures["taft4"])
    assert open(p).read() == first
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".hopfcat-")]


def test_digest_tracks_content(hopf_fixtures):
    assert digest(hopf_fixtures["kz2"]) != digest(hopf_fixtures["kz3"])
    assert digest(hopf_fixtures["kz2"]) == digest(group_algebra(QQ, 2))


def test_golden_serialization_of_the_two_element_group_algebra():
    expected = """format 1
kind hopf-category
field q
objects *
antipode yes
dim * * 2
antipode * * 0 0 1
antipode * * 1 1 1
comult * * 0 0 0 1
comult * * 1 1 1 1
counit * * 0 1
counit * * 1 1
mult * * * 0 0 0 1
mult * * * 0 1 1 1
mult * * * 1 0 1 1
mult * * * 1 1 0 1
unit * 0 1
"""
    assert serialize(group_algebra(QQ, 2)) == expected
    assert parse(expected) == group_algebra(QQ, 2)


# -- malformed inputs -------------------------------------------------------------------

HEADER = "format 1\nkind hopf-category\nfield q\nobjects *\nantipode no\ndim * * 1\n"
MODULE = "format 1\nkind module\nfield q\nobjects *\nbase kz2\n"
WEAK = "format 1\nkind weak-hopf\nfield q\nobjects x\nantipode no\n"
GRADED = "format 1\nkind graded-hopf\nfield q\nobjects e g\nantipode no\n"


@pytest.mark.parametrize("text,msg", [
    ("", "empty"),
    ("format 2\nkind hopf-category\n", "version"),
    ("format 1\nkind nonsense\n", "kind"),
    ("format 1\nkind hopf-category\nfield r\n", "field"),
    (HEADER + "mult * * * 0 0 1 1\n", "out of range"),
    (HEADER + "mult * * * 0 0 0 1\nmult * * * 0 0 0 2\n", "duplicate"),
    (HEADER + "mult * y * 0 0 0 1\n", "undeclared"),
    (HEADER + "antipode * * 0 0 1\n", "antipode no"),
    (HEADER + "wibble 1 2 3\n", "unrecognized"),
    # a header or dim line that fits nothing is reported at its line,
    # not as the header or dim it fails to be
    ("format 1\nkind hopf-category\nfield q\nobjects *\nantipode y es\n"
     "dim * * 2\n", "line 5: unrecognized record 'antipode y es'"),
    ("format 1\nkind hopf-category\nfield q\nobjects *\nantipode yes\n"
     "im * * 2\n", r"line 6: unrecognized record 'im \* \* 2'"),
    ("format 1\nkind hopf-category\nfield q\nobjects *\nantipode no\n",
     "missing dim"),
    (HEADER + "antipode yes\n", "line 7: repeated 'antipode' header"),
    (MODULE + "side left\nside right\n", "line 7: repeated 'side' header"),
    (MODULE + "base kz2\n", "line 6: repeated 'base' header"),
    ("format 1\nkind groupoid\nobjects 1 2 1 2\n",
     "line 3: objects line must list distinct labels"),
    (WEAK + "block x x 0 1\nblock x x 0 1\n",
     "line 7: blocks do not tile the total space"),
    (GRADED + "gmul e g g\n", r"line 4: missing or bad product \(e,e\)"),
    (GRADED + "gmul e e e\ngmul e g g\ngmul g e g\ngmul g g g\n",
     "line 4: group element 'g' has no inverse"),
    (GRADED + "gmul e e e\ngmul e g g\ngmul g e e\ngmul g g e\n",
     r"line 8: group table not associative at \(g,e,g\)"),
])
def test_parse_errors(text, msg):
    with pytest.raises(ParseError, match=msg):
        parse(text)


def test_bad_scalar_rejected():
    with pytest.raises(ParseError):
        parse(HEADER + "counit * * 0 1/0\n")
    with pytest.raises(ParseError):
        parse("format 1\nkind hopf-category\nfield fp:5\nobjects *\n"
              "antipode no\ndim * * 1\ncounit * * 0 1/2\n")


def test_comments_and_blank_lines_ignored():
    text = HEADER.replace("dim * * 1", "# full comment\n\ndim * * 1  # end")
    assert parse(text).dim("*", "*") == 1


# -- property: serialization is injective on scalar data ---------------------------------

@settings(max_examples=25)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                min_size=4, max_size=4))
def test_counit_payload_roundtrip(vals):
    a = group_algebra(QQ, 4)
    a.counit[("*", "*")] = list(vals)
    assert parse(serialize(a)).counit[("*", "*")] == list(vals)
