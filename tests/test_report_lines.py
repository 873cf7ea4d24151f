"""Report record lines are ``json.dumps(item.record()) + "\\n"``, byte for byte.

``CheckItem.json_line`` formats the records of ``--report`` files directly;
these tests hold it to the encoder it stands in for, on every fixture, on
failing items with witnesses and residuals, and on strings that need
escaping.  ``Report.lines`` folds the passing items of each axiom family
into one line; it is held to ``oracles.reference_fold`` on random item
lists, and the failing lines of a file to ``json_line`` of their items.
"""

import glob
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mutants import mutate, slots
from oracles import reference_fold

from hopfcat.cli import main
from hopfcat.core import HopfCatData, verify_structure
from hopfcat.fileformat import load
from hopfcat.report import CheckItem, Report


def dumped(item: CheckItem) -> str:
    return json.dumps(item.record()) + "\n"


@pytest.mark.parametrize("name", [
    os.path.basename(p)[:-3] for p in sorted(glob.glob(os.path.join(
        os.path.dirname(__file__), "..", "fixtures", "*.hc")))])
def test_report_file_of_every_fixture(fixture_dir, tmp_path, name):
    path = os.path.join(fixture_dir, name + ".hc")
    obj, flags = load(path), []
    if isinstance(obj, HopfCatData):
        flags = ["--strictness"] + (["--antipode-theorems"]
                                    if obj.has_antipode else [])
    report = str(tmp_path / "r.jsonl")
    assert main(["--quiet", "--report", report, "verify", path] + flags) \
        in (0, 1)
    with open(report, newline="") as fh:
        lines = fh.readlines()
    assert lines
    for line in lines:
        assert line == json.dumps(json.loads(line)) + "\n"


@pytest.mark.parametrize("name", ["kz2_stripped", "pair2_stripped"])
def test_every_single_coefficient_mutant(fixture_dir, name):
    a = load(os.path.join(fixture_dir, name + ".hc"))
    one, half = a.field.one, Fraction(1, 2)
    failing = mutants = 0
    for edit in (lambda v: v * 2 if v else one, lambda v: v - half):
        for slot in slots(a, [s.tag for s in a.layout.slots]):
            mutants += 1
            for item in verify_structure(mutate(a, [slot + (edit,)]),
                                         "semihopf").items:
                assert item.json_line() == dumped(item)
                failing += item.witness is not None and bool(item.residual)
    assert mutants >= 36 and failing > mutants


@pytest.mark.parametrize("item", [
    CheckItem("assoc", ("x", "y", "z", "w"), True),
    CheckItem("assoc", (), False, 0, "[0]=-1/2", 1),
    CheckItem("unit-left", ("x",), False, None, "", 3, required=False),
    CheckItem("comult-mult", ("é", "Δ", "日本"), False, 12,
              "[3]=1 [7]=-2", 2),
    CheckItem('quote"d', ('"', "back\\slash"), False, 0, 'say "hi"\\', 1),
    CheckItem("controls", ("tab\there", "new\nline", "\x00\x1f\x7f"), True,
              None, "bell\x07   \U0001f600", 0),
    CheckItem("groupoid-valid", (), False, None,
              "composition table: (a,b) ∘ (b,c) is missing", 1),
])
def test_hand_made_items_that_need_escaping(item):
    assert item.json_line() == dumped(item)
    assert json.loads(item.json_line()) == item.record()


def random_item(axiom, objects, required, ok, witness, residual, failures):
    """A passing item as the verifiers and ``analyze`` record one (with a
    residual only as a measurement, such as "dimension 1"), or one that is
    not ok: failing when ``required``, a noted measurement when not."""
    if ok:
        return CheckItem(axiom, objects, True, None, residual, 0, required)
    return CheckItem(axiom, objects, False, witness, residual, failures,
                     required)


ITEMS = st.lists(st.builds(
    random_item,
    st.sampled_from(["assoc", "unit-left", "comult-mult", 'quote"d', "日本"]),
    st.lists(st.sampled_from(["x", "y", "é", "a\tb"]), max_size=4).map(tuple),
    st.booleans(), st.booleans(), st.none() | st.integers(0, 99),
    st.sampled_from(["", "dimension 1", "[0]=-1/2", 'say "hi"\\']),
    st.integers(1, 5)), max_size=30)


@settings(max_examples=150, deadline=None)
@given(ITEMS)
def test_folded_lines_of_random_items(items):
    lines = Report(list(items)).lines()
    records = [json.loads(line) for line in lines]
    assert records == reference_fold([it.record() for it in items])
    assert all(line == json.dumps(r) + "\n" for line, r in zip(lines, records))
    kept = [line for line, r in zip(lines, records) if not r["ok"]]
    assert kept == [it.json_line() for it in items if not it.ok]
    assert sum(r.get("folded", 0) for r in records) + len(kept) == len(items)
