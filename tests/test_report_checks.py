"""The comparison and bookkeeping under every report record.

``check_map_equal`` compares two column lists whole before it walks them
column by column; these tests hold it to ``oracles.reference_check_map_equal``,
which walks every column, on columns equal as written, equal only after
reduction, and different, and on maps it must refuse.  ``Report.overall`` and
``failed`` see items however they were appended, through ``add``, ``extend``
or ``items`` itself.  Every item of a verifier's report goes through
``Report.add``, which the benchmark's tracer counts.  ``Instances`` compares
each distinct instance once and records every one: an instance is keyed by
its law and its arguments, an interned tensor by identity and an int, bool
or tuple by value, and an uninterned list or dict argument is refused; the
law itself gets the plain forms.  ``Instances.view`` reads each distinct
stored object of a table once and nests the table one label at a time.
"""

import os
from fractions import Fraction
from itertools import product

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
from hopfcat.sparse import SparseMap, columns, vector
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


def _given(field, form):
    """A reader for ``Instances.view`` that hands back the sparse form it
    is given."""
    return form


def _counted(monkeypatch) -> list:
    """The axiom of each comparison ``check_map_equal`` makes from now on."""
    compared = []

    def counted(report, *args):
        compared.append(args[0])
        return check_map_equal(report, *args)
    monkeypatch.setattr(report_module, "check_map_equal", counted)
    return compared


def test_instances_check_each_distinct_instance_once(monkeypatch):
    compared = _counted(monkeypatch)
    rep = Report()
    inst = Instances(rep, QQ)
    one, two = inst.view({"a": [{0: 1}], "b": [{0: 2}]}, _given).values()
    again = inst.view({"c": [{0: 1}]}, _given)["c"]
    assert again is one
    assert inst.check("law", ("x",), _sides, one, two) is False
    # an equal instance: recorded with its own axiom, objects and
    # required, and the first one's outcome
    assert inst.check("other", ("y", "z"), _sides, again, two,
                      required=False) is False
    # another law, or another argument, is another instance
    inst.check("law", ("x",), _swapped, one, two)
    inst.check("law", ("x",), _sides, one, one)
    inst.check("law", ("x",), _sides, two, one)
    assert compared == ["law"] * 4
    first = CheckItem("law", ("x",), False, 0, "[0]=-1", 1)
    assert rep.items[:2] == [first, CheckItem(
        "other", ("y", "z"), False, 0, "[0]=-1", 1, required=False)]
    assert [it.ok for it in rep.items[2:]] == [False, True, False]


def test_instances_keep_the_arguments_they_key_by_identity(monkeypatch):
    # each interned tensor lives on in its ``Instances`` (in the intern
    # table and in the memo's keys) after its caller drops it, so no
    # identity hash in a key is reused by a later tensor: a new value is a
    # new instance, and an old one repeats its instance
    compared = _counted(monkeypatch)
    inst = Instances(Report(), QQ)
    for n in list(range(50)) * 2:
        inst.check("law", (), _sides, inst.view({0: [{0: n}]}, _given)[0],
                   inst.view({0: [{0: 2}]}, _given)[0])
    assert len(compared) == 50
    assert len(inst.report.items) == 100


def _shape(f, dims: tuple, n: int):
    """dims[0] + n against 1001."""
    return _sides(f, [{0: dims[0] + n}], [{0: 1001}])


def test_equal_ints_bools_and_tuples_are_one_instance(monkeypatch):
    # an int, bool or tuple argument is keyed by its value: an equal one
    # built afresh repeats the instance, and an unequal one is another
    compared = _counted(monkeypatch)
    inst = Instances(Report(), QQ)
    n, other_n = int("1000"), int("1000")
    dims, other_dims = (1,), tuple([1])
    assert n == other_n and n is not other_n
    assert dims == other_dims and dims is not other_dims
    assert inst.check("a", (), _shape, dims, 0) is False
    assert inst.check("b", (), _shape, dims, n) is True
    assert inst.check("c", (), _shape, other_dims, n) is True
    assert inst.check("d", (), _shape, dims, other_n) is True
    assert inst.check("e", (), _shape, (2,), 999) is True
    # a bool is an int to Python (False == 0), and every law reads its
    # flags by their truth, so False repeats the instance of 0
    assert inst.check("f", (), _shape, dims, False) is False
    assert inst.check("g", (), _shape, dims, True) is False
    assert compared == ["a", "b", "e", "g"]
    assert [(it.axiom, it.ok, it.residual) for it in inst.report.items] == [
        ("a", False, "[0]=-1000"), ("b", True, ""), ("c", True, ""),
        ("d", True, ""), ("e", True, ""), ("f", False, "[0]=-1000"),
        ("g", False, "[0]=-999")]


def test_value_equal_tensors_interned_by_one_instances_are_one_object():
    # whichever table a tensor comes in, an equal sparse form is the same
    # interned object, a list or dict that hashes by identity and compares
    # by value; another ``Instances`` interns its own
    inst = Instances(Report(), QQ)
    tensor = [{0: {1: Fraction(1, 2)}}, {}]
    first = inst.view({("x", "y"): tensor, ("y", "x"): [{}, {}]}, _given)
    second = inst.view({("z", "z"): [{0: {1: Fraction(1, 2)}}, {}],
                        "u": {3: 1}}, _given)
    third = inst.view({"v": {3: 1}}, _given)
    assert second["z"]["z"] is first["x"]["y"]
    assert third["v"] is second["u"]
    assert first["x"]["y"] is not first["y"]["x"]
    for t, plain in ((first["x"]["y"], tensor), (third["v"], {3: 1})):
        assert isinstance(t, type(plain)) and t == plain
        assert hash(t) == object.__hash__(t)
    other = Instances(Report(), QQ).view({0: tensor}, _given)[0]
    assert other == first["x"]["y"] and other is not first["x"]["y"]


@pytest.mark.parametrize("plain", [[{0: 1}], {0: 1}])
def test_an_uninterned_list_or_dict_argument_raises(plain, monkeypatch):
    compared = _counted(monkeypatch)
    inst = Instances(Report(), QQ)
    interned = inst.view({0: [{0: 1}]}, _given)[0]
    with pytest.raises(TypeError):
        inst.check("law", (), _sides, interned, plain)
    assert compared == [] and inst.report.items == []


def test_a_law_gets_the_plain_forms_and_a_repeat_still_hits(monkeypatch):
    # the memo keys an instance by the interned tensors, and the law
    # evaluates on the plain list and dict that each of them copies
    compared = _counted(monkeypatch)
    inst = Instances(Report(), QQ)
    got = []

    def law(f, cols: list, vec: dict, n: int):
        got.append((cols, vec, n))
        return _sides(f, cols, [vec])
    cols = inst.view({"x": [[1]]}, columns, {"x": 1})["x"]
    vec = inst.view({"x": [1]}, vector)["x"]
    assert type(cols) is not list and type(vec) is not dict
    assert inst.check("law", ("x",), law, cols, vec, 1) is True
    assert inst.check("again", ("y",), law, cols, vec, 1) is True
    assert [tuple(map(type, args)) for args in got] == [(list, dict, int)]
    assert got == [(cols, vec, 1)] and compared == ["law"]
    assert [(it.axiom, it.ok) for it in inst.report.items] == [
        ("law", True), ("again", True)]


def _at(view: dict, key):
    """The entry of a view at a key of its table."""
    for label in key if isinstance(key, tuple) else (key,):
        view = view[label]
    return view


def _leaves(view: dict) -> int:
    return sum(_leaves(v) if type(v) is dict else 1 for v in view.values())


def test_view_reads_each_distinct_object_once_and_nests_the_table():
    X = ("x", "y", "z")
    inst = Instances(Report(), QQ)
    # one read per distinct (object, column count): the diagonal shares a
    # matrix, and the rest shares one empty matrix under two column counts
    reads = []

    def counted(field, m, n):
        reads.append((id(m), n))
        return columns(field, m, n)
    square, empty = [[1, 0], [0, 2]], []
    table = {(x, y): square if x == y else empty for x in X for y in X}
    cols = {(x, y): 2 if x == y else 1 + 2 * (x > y) for x in X for y in X}
    view = inst.view(table, counted, cols)
    assert sorted(reads) == sorted([(id(square), 2), (id(empty), 1),
                                    (id(empty), 3)])
    assert view["x"]["y"] == [{}] and view["y"]["x"] == [{}, {}, {}]
    assert view["x"]["y"] is view["x"]["z"] is view["y"]["z"]
    # the nesting holds the table entry for entry, keyed by labels, label
    # pairs or label triples, in row order or with the last label slowest
    for table in ({x: [n] for n, x in enumerate(X)},
                  {(x, y): [n, 1] for n, (x, y) in enumerate(product(X, X))},
                  {k: [0, n] for n, k in enumerate(product(X, X, X))}):
        for order in (table, dict(sorted(table.items(),
                                         key=lambda kv: kv[0][::-1]))):
            view = inst.view(order, vector)
            assert _leaves(view) == len(table)
            for key, v in table.items():
                assert _at(view, key) == vector(QQ, v)
    # without a reader, the view hands back the table's own objects
    dims = {(x, y): int("1000") for x in X for y in X}
    view = inst.view(dims)
    assert _leaves(view) == len(dims)
    assert all(_at(view, key) is n for key, n in dims.items())
