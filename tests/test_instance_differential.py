"""Identity keys hit wherever value keys did.

``report.Instances`` keys an axiom instance by the identity of every
argument; ``oracles.ReferenceInstances`` is the rule it replaced, which keyed
a tuple or int argument by its value.  Every verifier that checks through
``Instances`` must give the same records under both rules and compare the
same number of instances through ``check_map_equal``.  A call site that
passes a tuple or int built afresh per call keeps its records but loses its
hits, and fails here on the count.
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


def inputs() -> dict:
    found = {}
    for path in sorted(glob.glob(os.path.join(FIXTURE_DIR, "*.hc"))):
        obj = load(path)
        if isinstance(obj, HopfCatData) or type(obj) in VERIFY:
            found[os.path.basename(path)] = obj
    for n in range(4, 8):
        found[f"pair{n}"] = linearize_groupoid(
            pair_groupoid(tuple(f"o{i}" for i in range(n))), QQ)
    for n in (4, 6):
        graded = cyclic_graded(QQ, n, 2)
        found[f"z{n}-graded"] = graded
        found[f"z{n}-graded-lift"] = from_graded(graded)
    return found


INPUTS = inputs()


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_identity_keys_hit_where_value_keys_did(name, monkeypatch):
    obj = INPUTS[name]
    records, compared = outcomes(obj, monkeypatch)
    monkeypatch.setattr(Instances, "check", ReferenceInstances.check)
    assert (records, compared) == outcomes(obj, monkeypatch)
