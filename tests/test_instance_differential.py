"""The hashed instance keys hit wherever the spelled-out rule does.

``report.Instances`` keys an axiom instance by ``(law, args)``, hashed by
Python: an interned tensor, a ``list`` or ``dict`` subclass, by its
identity, and an int, bool or tuple by its value.
``oracles.ReferenceInstances`` states the same rule with the ``id`` of each
list or dict written out.  Every verifier that checks through ``Instances``
must give the same records under both and compare the same number of
instances through ``check_map_equal``.  A call site that passes a tensor it
did not intern raises ``TypeError`` under the hashed key and fails here.
The inputs are built inside the tests, one per test, so that a fault while
building one fails that test rather than the collection of this module and
of those that import it.
"""

import glob
import os

import pytest

from oracles import ReferenceInstances
from test_verifier_differential import cyclic_graded

from hopfcat import report as report_module
from hopfcat.core import (LEVELS, HopfCatData, check_antipode_theorems,
                          verify_structure)
from hopfcat.dual import DualHopfCatData, dualize, verify_dual
from hopfcat.duoidal import (BimonoidData, bimonoid_from_category,
                             verify_bimonoid)
from hopfcat.fileformat import load
from hopfcat.fundamental import (HopfModuleData, regular_hopf_module,
                                 verify_hopf_module)
from hopfcat.graded import GradedHopfData, from_graded, validate_graded
from hopfcat.groupoid import linearize_groupoid, pair_groupoid
from hopfcat.modules import (ComoduleData, ModuleData, regular_comodule,
                             regular_module, verify_comodule, verify_module)
from hopfcat.report import Instances
from hopfcat.scalars import QQ

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")

VERIFY = {
    DualHopfCatData: verify_dual,
    BimonoidData: verify_bimonoid,
    ModuleData: verify_module,
    ComoduleData: verify_comodule,
    HopfModuleData: verify_hopf_module,
    GradedHopfData: validate_graded,
}


def runs(obj):
    """(verifier, input) for each verifier that checks through
    ``Instances`` on ``obj``; for hopf-category data, every level, the
    antipode theorems, and the dual, bimonoid, regular modules, comodule
    and Hopf module made from it."""
    if not isinstance(obj, HopfCatData):
        yield VERIFY[type(obj)], obj
        return
    for level in LEVELS:
        yield (lambda a, level=level: verify_structure(a, level)), obj
    yield check_antipode_theorems, obj
    yield verify_dual, dualize(obj)
    yield verify_bimonoid, bimonoid_from_category(obj)
    yield verify_module, regular_module(obj, "right")
    yield verify_module, regular_module(obj, "left")
    yield verify_comodule, regular_comodule(dualize(obj))
    yield verify_hopf_module, regular_hopf_module(obj)


def outcomes(obj, monkeypatch) -> tuple[list, int]:
    """The records (or the exception) of every run on ``obj``, and the
    number of ``check_map_equal`` calls they made."""
    calls = []
    compare = report_module.check_map_equal

    def counted(*args, **kwargs):
        calls.append(None)
        return compare(*args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(report_module, "check_map_equal", counted)
        out = []
        for verify, arg in runs(obj):
            try:
                out.append([it.record() for it in verify(arg).items])
            except Exception as exc:    # noqa: BLE001 -- compared
                out.append((type(exc), str(exc)))
    return out, len(calls)


def _kind(path: str) -> str | None:
    """The ``kind`` header of a structure file, read as text."""
    with open(path) as fh:
        for line in fh:
            if line.startswith("kind "):
                return line.split()[1]
    return None


KINDS = {cls.layout.name for cls in (HopfCatData, *VERIFY)}
NAMES = sorted(
    [os.path.basename(path)
     for path in glob.glob(os.path.join(FIXTURE_DIR, "*.hc"))
     if _kind(path) in KINDS]
    + [f"pair{n}" for n in range(4, 8)]
    + [f"z{n}-graded{lift}" for n in (4, 6) for lift in ("", "-lift")])


def build(name: str):
    """The input of that name: a fixture, the linearized pair groupoid on
    n objects, or the Z/n-graded Hopf algebra or its lift."""
    if name.endswith(".hc"):
        obj = load(os.path.join(FIXTURE_DIR, name))
        assert isinstance(obj, HopfCatData) or type(obj) in VERIFY, name
        return obj
    if name.startswith("pair"):
        n = int(name[4:])
        return linearize_groupoid(
            pair_groupoid(tuple(f"o{i}" for i in range(n))), QQ)
    graded = cyclic_graded(QQ, int(name[1:name.index("-")]), 2)
    return from_graded(graded) if name.endswith("-lift") else graded


def test_every_input_is_named():
    assert len(NAMES) == 37


@pytest.mark.parametrize("name", NAMES)
def test_identity_keys_hit_where_value_keys_did(name, monkeypatch):
    obj = build(name)
    records, compared = outcomes(obj, monkeypatch)
    monkeypatch.setattr(Instances, "check", ReferenceInstances.check)
    assert (records, compared) == outcomes(obj, monkeypatch)
