"""The package's data-holding classes are plain classes (``hopfcat.value``):
an import generates no code, and each class keeps the equality, hashing,
mutability and storage its callers rely on."""

import os
import subprocess
import sys

import pytest

from hopfcat import fixtures as fx
from hopfcat.core import HopfCatData
from hopfcat.dual import dualize
from hopfcat.duoidal import bimonoid_from_category, carrier_of
from hopfcat.fileformat import _CLASSES
from hopfcat.fundamental import (CoinvariantFamily, RecoveryFailure,
                                 canonical_hopf_module)
from hopfcat.graded import GroupTable
from hopfcat.groupoid import pair_groupoid
from hopfcat.linalg import NotInvertible
from hopfcat.modules import regular_comodule, regular_module
from hopfcat.report import CheckItem, Report
from hopfcat.scalars import QQ, Field
from hopfcat.weak import pack

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

COLD_IMPORT = """
import importlib, os, sys
import hopfcat, hopfcat.cli
pkg = os.path.dirname(hopfcat.__file__)
mods = [importlib.import_module("hopfcat." + f[:-3])
        for f in sorted(os.listdir(pkg))
        if f.endswith(".py") and f != "__init__.py"]
generated = [f"{m.__name__}.{name}" for m in mods
             for name, v in vars(m).items()
             if isinstance(v, type) and hasattr(v, "__dataclass_fields__")]
print(len(mods), "dataclasses" in sys.modules, generated)
"""


def test_a_cold_import_generates_no_code():
    # -S: no site-packages .pth file can import modules of its own
    out = subprocess.run([sys.executable, "-S", "-c", COLD_IMPORT],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True).stdout
    count, loaded, generated = out.split(" ", 2)
    assert int(count) >= 16
    assert loaded == "False"
    assert generated.strip() == "[]"


@pytest.fixture(scope="module")
def kinds():
    """One instance of each mutable data-holding class."""
    a = fx.hopf_fixtures(QQ)["kz2"]
    return [a, dualize(a), pack(a), carrier_of(a), bimonoid_from_category(a),
            regular_module(a), regular_comodule(dualize(a)),
            canonical_hopf_module(a, a.objects[0]), pair_groupoid(("x", "y")),
            fx.strongly_graded_z2(QQ), GroupTable(("e",), {("e", "e"): "e"}),
            CoinvariantFamily({"x": []}), Report(), CheckItem("a", (), True)]


def test_mutable_classes_are_unhashable(kinds):
    assert set(_CLASSES.values()) <= {type(obj) for obj in kinds}
    for obj in kinds:
        with pytest.raises(TypeError):
            hash(obj)


def test_field_is_hashable_equal_by_p_and_refuses_assignment():
    assert Field(7) == Field(7) and hash(Field(7)) == hash(Field(7))
    assert Field() == QQ and Field(7) != QQ and Field(7) != Field(5)
    assert len({Field(7), Field(7), QQ}) == 2
    with pytest.raises(AttributeError):
        Field(7).p = 5
    with pytest.raises(AttributeError):
        del QQ.p
    with pytest.raises(ValueError, match="not prime"):
        Field(4)


def test_frozen_results_hash_by_fields():
    assert hash(NotInvertible(1, 2, 2)) == hash(NotInvertible(1, 2, 2))
    assert NotInvertible(1, 2, 2) != NotInvertible(1, 2, 3)
    r = RecoveryFailure("x", "y", "z", 1, 2)
    assert r == RecoveryFailure(z="x", x="y", y="z", rank=1, dim=2)
    assert repr(r) == "RecoveryFailure(z='x', x='y', y='z', rank=1, dim=2)"
    with pytest.raises(AttributeError):
        r.rank = 2


def test_check_item_has_slots_only():
    item = CheckItem("assoc", ("x",), False, 3, "r", 1, False)
    assert not hasattr(item, "__dict__")
    assert item == CheckItem(axiom="assoc", objects=("x",), ok=False,
                             witness=3, residual="r", failures=1,
                             required=False)
    assert CheckItem("a", (), True) == CheckItem("a", (), True, None, "", 0,
                                                 True)
    with pytest.raises(AttributeError):
        item.note = "no such slot"


def test_every_report_gets_its_own_items():
    a, b = Report(), Report()
    a.add(CheckItem("a", (), True))
    assert b.items == [] and a.items is not b.items
    assert a != b


def test_strip_antipode_changes_only_the_antipode():
    a = fx.hopf_fixtures(QQ)["kz2"]
    for data in (a, dualize(a)):
        stripped = data.strip_antipode()
        assert stripped is not data and stripped.antipode is None
        assert data.antipode is not None
        assert stripped == type(data)(*[
            None if f == "antipode" else getattr(data, f)
            for f in data._fields])
    assert a.strip_antipode().with_antipode(a.antipode) == a


def test_equality_is_by_class_and_fields():
    a = fx.hopf_fixtures(QQ)["kz2"]
    same = HopfCatData(a.field, a.objects, a.dims, a.mult, a.unit,
                       a.comult, a.counit, antipode=a.antipode)
    assert same == a and not same != a
    assert carrier_of(a) != a and a != carrier_of(a)
    assert a != a.strip_antipode()
