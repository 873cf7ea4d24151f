"""The comparison and bookkeeping under every report record.

``check_map_equal`` compares two column lists whole before it walks them
column by column; these tests hold it to ``oracles.reference_check_map_equal``,
which walks every column, on columns equal as written, equal only after
reduction, and different, and on maps it must refuse.  ``Report.overall`` and
``failed`` see items however they were appended, through ``add``, ``extend``
or ``items`` itself.  Every item of a verifier's report goes through
``Report.add``, which the benchmark's tracer counts.  ``Instances`` compares
each distinct instance, keyed by the identity of its arguments, once and
records every one.
"""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcat.core import verify_structure
from hopfcat.dual import verify_dual
from hopfcat.fileformat import load
from hopfcat.linalg import LinMap
from hopfcat import report as report_module
from hopfcat.report import CheckItem, Instances, Report, check_map_equal
from hopfcat.scalars import GF, QQ
from hopfcat.sparse import SparseMap
from hopfcat.weak import verify_weak_hopf

from oracles import reference_check_map_equal

FIELDS = (QQ, GF(5), GF((1 << 61) - 1))


def outcome(check, lhs, rhs, required=True):
    """The return value and records of one check, or the exception."""
    rep = Report()
    try:
        ok = check(rep, "law", ("x", "y"), lhs, rhs, required=required)
    except Exception as exc:        # noqa: BLE001 -- compared, not handled
        return type(exc), str(exc)
    return ok, [it.record() for it in rep.items]


def assert_same(lhs, rhs, required=True):
    got = outcome(check_map_equal, lhs, rhs, required)
    assert got == outcome(reference_check_map_equal, lhs, rhs, required)
    return got


def raw_values(field):
    """Raw scalars as the engine leaves them: over GF(p) unreduced ints,
    also past p and negative; over Q ints and Fractions."""
    if field.p is None:
        return st.one_of(st.integers(-3, 3),
                         st.fractions(-3, 3, max_denominator=4))
    p = field.p
    return st.one_of(st.integers(0, 4), st.integers(p - 2, p + 2),
                     st.integers(-2, -1), st.sampled_from([2 * p, p * p]))


def column(field, rows):
    if not rows:
        return st.just({})
    return st.dictionaries(st.integers(0, rows - 1), raw_values(field),
                           max_size=rows)


@st.composite
def partner(draw, field, rows, col):
    """A column to compare with ``col``: equal as written, equal only after
    reduction, different in one entry, or unrelated."""
    how = draw(st.sampled_from(["same", "congruent", "one-off", "fresh"]))
    if how == "same":
        return dict(col)
    if how == "fresh":
        return draw(column(field, rows))
    out = dict(col)
    if how == "one-off":
        if rows:
            k = draw(st.integers(0, rows - 1))
            out[k] = out.get(k, 0) + 1
        return out
    for k, v in col.items():
        if field.p is not None:
            out[k] = v + draw(st.integers(-2, 2)) * field.p
        elif isinstance(v, int):
            out[k] = Fraction(v)
        elif v.denominator == 1:
            out[k] = v.numerator
    if rows and draw(st.booleans()):
        # an explicit zero, or a multiple of p, where the other has no key
        k = draw(st.integers(0, rows - 1))
        if k not in out:
            out[k] = 0 if field.p is None else draw(st.integers(-1, 1)) \
                * field.p
    return out


@st.composite
def map_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    lhs = [draw(column(field, rows)) for _ in range(cols)]
    rhs = [draw(partner(field, rows, col)) for col in lhs]
    rhs_field, rhs_rows = field, rows
    mismatch = draw(st.sampled_from([None] * 6 + ["field", "rows", "cols"]))
    if mismatch == "field":
        rhs_field = draw(st.sampled_from([f for f in FIELDS if f != field]))
    elif mismatch == "rows":
        rhs_rows = rows + 1
    elif mismatch == "cols":
        rhs = rhs + [{}]
    return SparseMap(field, rows, lhs), SparseMap(rhs_field, rhs_rows, rhs)


@settings(max_examples=400, deadline=None)
@given(map_pairs(), st.booleans())
def test_whole_map_comparison_matches_the_per_column_reference(pair,
                                                               required):
    assert_same(*pair, required=required)


@pytest.mark.parametrize("field, left, right, ok", [
    (GF(5), 6, 1, True),                      # p+1 against 1
    (GF(5), -1, 4, True),                     # -1 against p-1
    (GF(5), 10, None, True),                  # a multiple of p against none
    (GF((1 << 61) - 1), (1 << 61), 1, True),
    (GF((1 << 61) - 1), -1, (1 << 61) - 2, True),
    (QQ, 3, Fraction(3), True),               # an int against its Fraction
    (QQ, 0, None, True),                      # an explicit zero against none
    (QQ, Fraction(1, 2), Fraction(-1, 2), False),
    (GF(5), 7, 1, False),
])
def test_columns_equal_only_after_reduction(field, left, right, ok):
    lhs = SparseMap(field, 1, [{0: 1}, {0: left}])
    rhs = SparseMap(field, 1, [{0: 1}, {} if right is None else {0: right}])
    got_ok, records = assert_same(lhs, rhs)
    assert got_ok is ok
    assert records[0]["witness"] == (None if ok else 1)


def test_zero_column_maps_and_refused_pairs():
    assert assert_same(SparseMap(QQ, 2, []), SparseMap(QQ, 2, []))[0] is True
    assert assert_same(SparseMap(QQ, 0, [{}, {}]),
                       SparseMap(QQ, 0, [{}, {}]))[0] is True
    for lhs, rhs in [
            (SparseMap(QQ, 1, [{0: 1}]), SparseMap(GF(5), 1, [{0: 1}])),
            (SparseMap(QQ, 1, [{0: 1}]), SparseMap(QQ, 2, [{0: 1}])),
            (SparseMap(QQ, 1, [{0: 1}]), SparseMap(QQ, 1, [{0: 1}, {}])),
            (SparseMap(QQ, 1, []), SparseMap(QQ, 2, []))]:
        kind, message = assert_same(lhs, rhs)
        assert issubclass(kind, (TypeError, ValueError)), message


def test_dense_and_sparse_maps_compare_alike():
    f = GF(5)
    dense = LinMap(f, 2, 2, [[f.of(1), f.zero], [f.of(3), f.of(4)]])
    same = SparseMap(f, 2, [{0: 6, 1: 3}, {1: -1}])
    other = SparseMap(f, 2, [{0: 1, 1: 3}, {1: 3}])
    assert assert_same(dense, same)[0] is True
    assert assert_same(dense, other)[0] is False
    assert assert_same(same, dense)[0] is True


# -- verdicts after every kind of append ----------------------------------------

def item(n: int, ok: bool, required: bool) -> CheckItem:
    return CheckItem(f"a{n}", (str(n),), ok, None if ok else 0,
                     "" if ok else "[0]=1", 0 if ok else 1, required)


items = st.builds(item, st.integers(0, 99), st.booleans(), st.booleans())
operations = st.lists(st.one_of(
    st.tuples(st.just("add"), items),
    st.tuples(st.just("extend"), st.lists(items, max_size=3)),
    st.tuples(st.just("items.extend"), st.lists(items, max_size=3)),
    st.tuples(st.just("items.append"), items),
    st.tuples(st.just("replace"), st.integers(0, 5)),
    st.tuples(st.sampled_from(["overall", "failed"]), st.none())),
    max_size=30)


@settings(max_examples=300, deadline=None)
@given(operations)
def test_overall_and_failed_match_a_full_rescan(ops):
    """Appends of every kind, several at a time between reads, and reads of
    ``overall`` or ``failed`` in any order, each against a full rescan."""
    rep = Report()
    for op, arg in ops + [("overall", None), ("failed", None)]:
        if op == "add":
            rep.add(arg)
        elif op == "extend":
            rep.extend(Report(list(arg)))
        elif op == "items.extend":
            rep.items.extend(arg)
        elif op == "items.append":
            rep.items.append(arg)
        elif op == "replace":           # a new, possibly shorter list
            rep.items = rep.items[:arg]
        elif op == "overall":
            assert rep.overall == all(it.ok for it in rep.items
                                      if it.required)
        else:
            assert rep.failed() == [it for it in rep.items
                                    if it.required and not it.ok]
    assert rep.summary() == Report(list(rep.items)).summary()


def test_failed_returns_a_list_the_caller_may_keep():
    rep = Report([item(0, False, True)])
    kept = rep.failed()
    kept.append(item(1, False, True))
    rep.add(item(2, True, True))
    assert len(rep.failed()) == 1 and not rep.overall


# -- every record goes through Report.add ---------------------------------------

@pytest.mark.parametrize("name, verify", [
    ("pair3", verify_structure),
    ("taft4", verify_structure),
    ("kz2_dual", verify_dual),
    ("pair2_dual", verify_dual),
    ("pair3_packed", verify_weak_hopf),
    ("disjoint_dual_packed", verify_weak_hopf),
])
def test_every_item_goes_through_report_add(fixture_dir, monkeypatch, name,
                                           verify):
    calls = []
    add = Report.add

    def counted(self, it):
        calls.append(it)
        return add(self, it)
    monkeypatch.setattr(Report, "add", counted)
    rep = verify(load(os.path.join(fixture_dir, name + ".hc")))
    assert rep.items and calls == rep.items


# -- each distinct instance checked once -----------------------------------------

def _sides(f, left: list, right: list):
    return SparseMap(f, 1, left), SparseMap(f, 1, right)


def _swapped(f, left: list, right: list):
    return SparseMap(f, 1, right), SparseMap(f, 1, left)


def test_instances_check_each_distinct_instance_once(monkeypatch):
    compared = []

    def counted(report, *args):
        compared.append(args[:2])
        return check_map_equal(report, *args)
    monkeypatch.setattr(report_module, "check_map_equal", counted)
    rep = Report()
    inst = Instances(rep)
    one, two = inst.intern({"a": [{0: 1}], "b": [{0: 2}]}).values()
    again = inst.intern({"c": [{0: 1}]})["c"]
    assert again is one
    assert inst.check("law", ("x",), _sides, QQ, one, two) is False
    # an equal instance: recorded with its own axiom, objects and
    # required, and the first one's outcome
    assert inst.check("other", ("y", "z"), _sides, QQ, again, two,
                      required=False) is False
    # another law, or another argument, is another instance
    inst.check("law", ("x",), _swapped, QQ, one, two)
    inst.check("law", ("x",), _sides, QQ, one, one)
    inst.check("law", ("x",), _sides, QQ, [{0: 1}], two)
    assert compared == [("law", ("x",)), ("law", ("x",)), ("law", ("x",)),
                        ("law", ("x",))]
    first = CheckItem("law", ("x",), False, 0, "[0]=-1", 1)
    assert rep.items[:2] == [first, CheckItem(
        "other", ("y", "z"), False, 0, "[0]=-1", 1, required=False)]
    assert [it.ok for it in rep.items[2:]] == [False, True, False]


def test_instances_keep_the_arguments_they_key_by_identity(monkeypatch):
    # each temporary list lives on in the memo, so its id is not reused by
    # the next one, which is a new instance
    compared = []

    def counted(report, *args):
        compared.append(args[0])
        return check_map_equal(report, *args)
    monkeypatch.setattr(report_module, "check_map_equal", counted)
    inst = Instances(Report())
    for _ in range(50):
        inst.check("law", (), _sides, QQ, [{0: 1}], [{0: 2}])
    assert len(compared) == len(inst.report.items) == 50


def _shape(f, dims: tuple, n: int):
    """dims[0] + n against 1001."""
    return _sides(f, [{0: dims[0] + n}], [{0: 1001}])


def test_equal_but_distinct_tuples_and_ints_are_new_instances(monkeypatch):
    # instances are keyed by the identity of their arguments: an equal
    # tuple or int that is another object is compared again, with its own
    # outcome, and only the very same objects repeat an instance
    compared = []

    def counted(report, *args):
        compared.append(args[0])
        return check_map_equal(report, *args)
    monkeypatch.setattr(report_module, "check_map_equal", counted)
    inst = Instances(Report())
    n, other_n = int("1000"), int("1000")
    dims, other_dims = (1,), tuple([1])
    assert n == other_n and n is not other_n
    assert dims == other_dims and dims is not other_dims
    assert inst.check("a", (), _shape, QQ, dims, 0) is False
    assert inst.check("b", (), _shape, QQ, dims, n) is True
    assert inst.check("c", (), _shape, QQ, other_dims, n) is True
    assert inst.check("d", (), _shape, QQ, dims, other_n) is True
    assert compared == ["a", "b", "c", "d"]
    assert inst.check("e", (), _shape, QQ, dims, n) is True
    assert inst.check("f", (), _shape, QQ, dims, 0) is False
    assert compared == ["a", "b", "c", "d"]
    assert [(it.axiom, it.ok, it.residual) for it in inst.report.items] == [
        ("a", False, "[0]=-1000"), ("b", True, ""), ("c", True, ""),
        ("d", True, ""), ("e", True, ""), ("f", False, "[0]=-1000")]
