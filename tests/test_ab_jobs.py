"""``scripts/ab_jobs.py`` on the pair-groupoid ladder, at tiny sizes.

Two copies of ``src/`` and ``perfbench/`` under ``tmp_path``: one copy
named twice (the A/A run) must pass, and a copy with a planted fault, a
``verify_structure`` that reports a failure or a writer that writes other
bytes, must stop the script with exit code 1 before any table."""

import os
import shutil
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "scripts"))
import ab_jobs      # noqa: E402

PLANTS = {
    "wrong outcome": ("core.py", """
_verify_structure = verify_structure


def verify_structure(a, level="hopf"):
    rep = _verify_structure(a, level)
    check_condition(rep, "planted", (), False)
    return rep
""", "{side}: 2 verify_structure: fails"),
    "other bytes": ("fileformat.py", """
_serialize = serialize


def serialize(obj):
    return _serialize(obj) + "\\n"
""", "different input bytes"),
}


def checkout(tmp_path, name: str) -> str:
    path = tmp_path / name
    for sub in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, sub), path / sub,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return str(path)


def ladder(parent: str, change: str) -> int:
    return ab_jobs.main([parent, change, "--workload", ab_jobs.LADDER,
                         "--rounds", "3"])


def test_the_ladder_a_a_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ab_jobs, "SIZES", (2,))
    same = checkout(tmp_path, "same")
    assert ladder(same, same) == 0
    out = capsys.readouterr().out
    assert "change wins" in out and "2 packed verify_weak_hopf" in out
    for side in ("parent", "change"):
        assert os.path.isfile(os.path.join(
            same, ".perfbench_work", "ab_jobs", side, ab_jobs.LADDER,
            "packed2.hc"))


@pytest.mark.parametrize("side", ["parent", "change"])
@pytest.mark.parametrize("plant", PLANTS)
def test_a_planted_fault_stops_the_ladder(tmp_path, monkeypatch, capsys,
                                           plant, side):
    monkeypatch.setattr(ab_jobs, "SIZES", (2,))
    module, code, message = PLANTS[plant]
    planted = checkout(tmp_path, "planted")
    with open(os.path.join(planted, "src", "hopfcat", module), "a") as fh:
        fh.write(code)
    same = checkout(tmp_path, "same")
    with pytest.raises(SystemExit) as stop:
        ladder(*((planted, same) if side == "parent" else (same, planted)))
    # a message, not an int: the interpreter prints it and exits 1
    assert isinstance(stop.value.code, str)
    assert message.format(side=side) in stop.value.code
    assert "change wins" not in capsys.readouterr().out
