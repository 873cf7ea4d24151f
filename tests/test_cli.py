import json
import os
import re
import resource
import stat
import subprocess
import sys

import pytest

from mutants import mutate, slots
from oracles import reference_fold

from hopfcat import cli, core, fileformat, fundamental
from hopfcat.cli import main
from hopfcat.core import check_antipode_theorems, verify_structure
from hopfcat.fileformat import load, save
from hopfcat.fixtures import group_algebra
from hopfcat.groupoid import linearize_groupoid, pair_groupoid
from hopfcat.report import Report
from hopfcat.scalars import GF, QQ


def fx(fixture_dir, name):
    return os.path.join(fixture_dir, name + ".hc")


# -- verify -------------------------------------------------------------------------

def test_verify_passing_fixture(fixture_dir, capsys):
    assert main(["verify", fx(fixture_dir, "pair3")]) == 0
    assert "pass" in capsys.readouterr().out


def test_verify_levels(fixture_dir):
    assert main(["verify", fx(fixture_dir, "idempotent"),
                 "--level", "semihopf"]) == 0
    assert main(["verify", fx(fixture_dir, "idempotent"),
                 "--level", "category"]) == 0
    # hopf level needs an antipode: usage error
    assert main(["verify", fx(fixture_dir, "idempotent"),
                 "--level", "hopf"]) == 2


def test_verify_rejects_every_candidate_antipode(fixture_dir):
    for cand in ("identity", "collapse_to_unit", "kill_z"):
        path = fx(fixture_dir, f"idempotent_candidate_{cand}")
        assert main(["--quiet", "verify", path, "--level", "hopf"]) == 1


def test_verify_extra_checks(fixture_dir):
    assert main(["--quiet", "verify", fx(fixture_dir, "kz3"),
                 "--strictness", "--antipode-theorems"]) == 0
    # a valid structure whose antipode is not involutive still verifies:
    # the three twisted conditions are measurements, not axioms
    assert main(["--quiet", "verify", fx(fixture_dir, "taft4"),
                 "--antipode-theorems"]) == 0


def test_verify_other_kinds(fixture_dir):
    for name in ("pair2_groupoid", "graded_z2_strong_graded", "kz2_dual",
                 "kz2_regular_module", "kz2_regular_hopf_module",
                 "kz2_dual_regular_comodule"):
        assert main(["--quiet", "verify", fx(fixture_dir, name)]) == 0


@pytest.mark.parametrize("edit, axiom, flag", [
    (("counit * * 0 1\n", "counit * * 0 2\n"), "counit-left",
     "--antipode-theorems"),
    (("unit * 0 1\n", "unit * 0 2\n"), "unit-left", "--strictness"),
])
def test_extra_checks_report_a_failing_base(fixture_dir, tmp_path, edit,
                                            axiom, flag):
    # well-formed data that breaks an axiom exits 1 with its report, also
    # when the extra checks, which presuppose valid data, were asked for
    src = open(fx(fixture_dir, "kz2")).read()
    assert edit[0] in src
    path = tmp_path / "kz2_edited.hc"
    path.write_text(src.replace(edit[0], edit[1]))
    rep = str(tmp_path / "r.jsonl")
    assert main(["--quiet", "--report", rep, "verify", str(path), flag]) == 1
    failed = {r["axiom"] for r in map(json.loads, open(rep)) if not r["ok"]}
    assert axiom in failed


def test_antipode_theorems_below_level_hopf(fixture_dir, tmp_path):
    # with --level category the base report passes, and the hopf-level
    # check the antipode theorems presuppose is run as their guard: its
    # failures are reported (exit 1, report written), not a usage error
    src = open(fx(fixture_dir, "kz2")).read()
    path = tmp_path / "kz2_edited.hc"
    path.write_text(src.replace("counit * * 0 1\n", "counit * * 0 2\n"))
    rep = str(tmp_path / "r.jsonl")
    argv = ["--quiet", "--report", rep, "verify", str(path), "--level",
            "category", "--antipode-theorems"]
    assert main(argv) == 1
    records = [json.loads(line) for line in open(rep)]
    a = load(str(path))
    base = verify_structure(a, "category")
    assert base.overall
    assert records == reference_fold(
        [it.record() for it in base.items]
        + [it.record() for it in verify_structure(a, "hopf").failed()])
    assert "counit-left" in {r["axiom"] for r in records if not r["ok"]}
    # passing data keeps its items: the base report, then the theorems
    a = load(fx(fixture_dir, "kz2"))
    argv[4] = fx(fixture_dir, "kz2")
    assert main(argv) == 0
    assert [json.loads(line) for line in open(rep)] == reference_fold(
        [it.record() for it in verify_structure(a, "category").items
         + check_antipode_theorems(a).items])


def test_verify_checks_the_structure_once(fixture_dir, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return verify_structure(*args, **kwargs)
    monkeypatch.setattr(cli, "verify_structure", counted)
    monkeypatch.setattr(core, "verify_structure", counted)
    assert main(["--quiet", "verify", fx(fixture_dir, "taft4"),
                 "--strictness", "--antipode-theorems"]) == 0
    assert calls == [("hopf",)]


@pytest.mark.parametrize("argv,code,reads", [
    (["taft4", "--strictness", "--antipode-theorems"], 0, 2),
    (["taft4", "--level", "semihopf", "--strictness",
      "--antipode-theorems"], 0, 3),
    (["idempotent_candidate_identity", "--strictness",
      "--antipode-theorems"], 1, 1),
    (["kz2_regular_hopf_module"], 0, 2),
])
def test_verify_reads_each_verdict_once(fixture_dir, monkeypatch, argv,
                                        code, reads):
    # the base report, the level-'hopf' report the theorems need, and the
    # extra checks' report: each verdict is read once, in the CLI, and the
    # passing base is handed on rather than read again
    read = []
    overall = Report.overall

    def counted(rep):
        read.append(rep)
        return overall.fget(rep)
    monkeypatch.setattr(Report, "overall", property(counted))
    assert main(["--quiet", "verify", fx(fixture_dir, argv[0])]
                + argv[1:]) == code
    assert len(read) == reads == len({id(rep) for rep in read})


def test_verify_weak_output_of_pack(fixture_dir, tmp_path):
    out = str(tmp_path / "w.hc")
    assert main(["--quiet", "transform", fx(fixture_dir, "pair2"),
                 "pack", out]) == 0
    assert main(["--quiet", "verify", out]) == 0


def test_verify_parse_error_exit(tmp_path):
    bad = tmp_path / "bad.hc"
    bad.write_text("format 1\nkind hopf-category\nfield q\nobjects *\n"
                   "antipode no\ndim * * 1\nmult * * * 0 0 7 1\n")
    assert main(["--quiet", "verify", str(bad)]) == 2
    assert main(["--quiet", "verify", str(tmp_path / "missing.hc")]) == 2


def test_verify_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.hc"
    bad.write_bytes(b"format 1\nkind hopf-category\nfield q\nobjects \xff\n")
    assert main(["--quiet", "verify", str(bad)]) == 2
    assert "line 4: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, line", [
    ("antipode yes", "antipode y es", 5), ("dim * * 2", "im * * 2", 6)])
def test_verify_names_the_line_of_an_unrecognized_header(
        fixture_dir, tmp_path, capsys, old, new, line):
    path = tmp_path / "kz2.hc"
    with open(fx(fixture_dir, "kz2")) as fh:
        path.write_text(fh.read().replace(old + "\n", new + "\n"))
    assert main(["--quiet", "verify", str(path)]) == 2
    assert f"line {line}: unrecognized record '{new}'" \
        in capsys.readouterr().err


HEADERS = ("format", "kind", "field", "objects", "antipode", "base", "side",
           "gmul", "block", "dim")


@pytest.mark.parametrize("name", [
    "kz2", "kz2_dual", "pair3_packed", "graded_z2_strong_graded",
    "kz2_left_regular_module", "kz2_dual_regular_comodule",
    "kz2_regular_hopf_module", "kz2_bimonoid"])
def test_negative_dimension_in_every_kind(fixture_dir, tmp_path, capsys,
                                          name):
    """A file of any kind stripped of its records, with one dimension set
    to -1, is rejected with exit 2 and the line of that dimension."""
    for base in ("kz2", "kz2_dual"):
        save(str(tmp_path / (base + ".hc")), load(fx(fixture_dir, base)))
    kept, bad_line = [], None
    with open(fx(fixture_dir, name)) as fh:
        for line in fh:
            toks = line.split()
            if toks[0] in ("dim", "block") and bad_line is None:
                line = " ".join(toks[:-1] + ["-1"]) + "\n"
                bad_line = len(kept) + 1
            if toks[0] in HEADERS and not (toks[0] == "antipode"
                                           and len(toks) > 2):
                kept.append(line)
    path = tmp_path / "bad.hc"
    path.write_text("".join(kept))
    capsys.readouterr()
    assert main(["--quiet", "verify", str(path)]) == 2
    assert f"line {bad_line}: negative dimension" in capsys.readouterr().err


@pytest.mark.parametrize("name", [
    "kz2_regular_module", "kz2_dual_regular_comodule",
    "kz2_regular_hopf_module"])
def test_module_over_a_base_of_another_field(fixture_dir, tmp_path, capsys,
                                             name):
    for base in ("kz2", "kz2_dual"):
        save(str(tmp_path / (base + ".hc")), load(fx(fixture_dir, base)))
    text = open(fx(fixture_dir, name)).read()
    assert text.splitlines()[2] == "field q"
    path = tmp_path / "bad.hc"
    path.write_text(text.replace("field q\n", "field fp:5\n", 1))
    capsys.readouterr()
    assert main(["--quiet", "verify", str(path)]) == 2
    assert "line 3: base 'kz2" in capsys.readouterr().err


def test_a_base_file_error_names_the_base_file(fixture_dir, tmp_path,
                                               capsys):
    lines = open(fx(fixture_dir, "kz2")).read().splitlines(keepends=True)
    assert lines[5] == "dim * * 2\n"
    lines[5] = "dim * * x\n"
    (tmp_path / "kz2.hc").write_text("".join(lines))
    module = tmp_path / "kz2_regular_module.hc"
    module.write_text(open(fx(fixture_dir, "kz2_regular_module")).read())
    capsys.readouterr()
    assert main(["--quiet", "verify", str(module)]) == 2
    assert capsys.readouterr().err == \
        f"error: {tmp_path / 'kz2.hc'}: line 6: bad integer 'x'\n"


@pytest.mark.parametrize("edit, message", [
    (("base kz2", "base nowhere"), "cannot resolve base 'nowhere'"),
    (("field q", "field fp:5"), "line 3: base 'kz2' is over field"),
    (("objects *", "objects a"), "base 'kz2' has objects"),
])
def test_a_module_file_error_names_the_module_file(fixture_dir, tmp_path,
                                                   capsys, edit, message):
    save(str(tmp_path / "kz2.hc"), load(fx(fixture_dir, "kz2")))
    module = tmp_path / "kz2_regular_module.hc"
    text = open(fx(fixture_dir, "kz2_regular_module")).read()
    assert edit[0] + "\n" in text
    module.write_text(text.replace(edit[0] + "\n", edit[1] + "\n", 1))
    capsys.readouterr()
    assert main(["--quiet", "verify", str(module)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {module}: ") and message in err


@pytest.mark.parametrize("bases", [{"selfmod": "selfmod"},
                                   {"a": "b", "b": "a"}],
                         ids=["self", "two files"])
def test_a_cycle_of_base_files_is_a_parse_error(fixture_dir, tmp_path,
                                                capsys, bases):
    # each file is a module whose base header names the next file of the
    # cycle, so reading one would never end
    text = open(fx(fixture_dir, "kz2_regular_module")).read()
    assert text.splitlines()[4] == "base kz2"
    for name, base in bases.items():
        (tmp_path / f"{name}.hc").write_text(
            text.replace("base kz2\n", f"base {base}\n", 1))
    first = next(iter(bases))
    capsys.readouterr()
    assert main(["--quiet", "verify", str(tmp_path / f"{first}.hc")]) == 2
    out, err = capsys.readouterr()
    # the cycle closes at the base line of the last file read
    last = first if len(bases) == 1 else bases[first]
    assert out == ""
    assert err == (f"error: {tmp_path / f'{last}.hc'}: line 5: base "
                   f"'{bases[last]}' names {tmp_path / f'{bases[last]}.hc'}, "
                   f"which is already being read: a cycle of base files\n")


def test_a_file_read_before_is_no_longer_being_read(fixture_dir, tmp_path):
    # c names the module m as its base, which a base may not be; loading m
    # (whose base is kz2) or failing on c must leave no file marked as
    # being read, or c's error would turn into a cycle
    text = open(fx(fixture_dir, "kz2_regular_module")).read()
    (tmp_path / "kz2.hc").write_text(open(fx(fixture_dir, "kz2")).read())
    (tmp_path / "m.hc").write_text(text)
    (tmp_path / "c.hc").write_text(text.replace("base kz2\n", "base m\n", 1))
    errors = []
    for _ in range(2):
        with pytest.raises(fileformat.ParseError) as e:
            load(str(tmp_path / "c.hc"))
        errors.append(str(e.value))
        load(str(tmp_path / "m.hc"))
    assert "cycle" not in errors[0] and errors[1] == errors[0]


def test_a_directory_does_not_shadow_a_base_file(fixture_dir, tmp_path,
                                                 capsys):
    # ``base kz2`` names ``kz2`` before ``kz2.hc``; a directory called
    # ``kz2`` is not a base file, so the one beside it is read
    module = tmp_path / "kz2_regular_hopf_module.hc"
    module.write_text(open(fx(fixture_dir, "kz2_regular_hopf_module")).read())
    (tmp_path / "kz2").mkdir()
    save(str(tmp_path / "kz2.hc"), load(fx(fixture_dir, "kz2")))
    assert main(["--quiet", "verify", str(module)]) == 0
    os.remove(tmp_path / "kz2.hc")
    capsys.readouterr()
    assert main(["--quiet", "verify", str(module)]) == 2
    line = open(module).read().splitlines().index("base kz2") + 1
    assert capsys.readouterr().err.startswith(
        f"error: {module}: line {line}: cannot resolve base 'kz2'")


def test_a_report_of_a_groupoid_missing_an_identity(tmp_path, capsys):
    path = tmp_path / "g.hc"
    path.write_text("format 1\nkind groupoid\nobjects a b\n"
                    "morphism f a b\nidentity a f\n")
    rep = str(tmp_path / "r.jsonl")
    for argv in ([], ["--report", rep]):
        capsys.readouterr()
        assert main(argv + ["verify", str(path)]) == 1
        assert "FAIL groupoid-valid" in capsys.readouterr().out
    assert [json.loads(line)["axiom"] for line in open(rep)] == \
        ["groupoid-valid"]
    manifest = json.load(open(rep + ".manifest.json"))
    assert manifest["inputs"][0]["digest"] == \
        fileformat.digest(fileformat.load(str(path)))


def test_verify_report_and_manifest(fixture_dir, tmp_path):
    rep = str(tmp_path / "r.jsonl")
    assert main(["--quiet", "--report", rep, "verify",
                 fx(fixture_dir, "kz2")]) == 0
    records = [json.loads(line) for line in open(rep)]
    assert all(r["ok"] for r in records)
    assert {"axiom", "objects", "ok", "witness", "residual", "failures"} \
        <= set(records[0])
    manifest = json.load(open(rep + ".manifest.json"))
    assert manifest["command"] == "verify"
    assert manifest["inputs"][0]["digest"]
    assert "seed" not in manifest


def test_seed_flag_is_gone(fixture_dir):
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "1", "verify", fx(fixture_dir, "kz2")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ["verify", "{path}"],
    ["transform", "{path}", "opposite", "{out}"],
    ["analyze", "{path}", "integrals"],
])
def test_manifest_digests_the_loaded_input(fixture_dir, tmp_path, command):
    path = fx(fixture_dir, "taft4")
    rep = str(tmp_path / "r.jsonl")
    argv = [a.format(path=path, out=tmp_path / "out.hc") for a in command]
    assert main(["--quiet", "--report", rep] + argv) == 0
    manifest = json.load(open(rep + ".manifest.json"))
    assert manifest["inputs"][0]["path"] == path
    assert manifest["inputs"][0]["digest"] == \
        fileformat.digest(fileformat.load(path))


def test_large_declared_dim_over_sparse_constants(fixture_dir, tmp_path,
                                                  capsys):
    # Missing entries default to 0, so this is well-formed: e_2..e_39 are
    # zero under every product and coproduct, and only the unit and counit
    # laws can see that.
    src = open(fx(fixture_dir, "kz2")).read()
    assert "dim * * 2\n" in src
    path = tmp_path / "kz2_dim40.hc"
    path.write_text(src.replace("dim * * 2\n", "dim * * 40\n"))
    rep = str(tmp_path / "r.jsonl")
    assert main(["--report", rep, "verify", str(path)]) == 1
    assert "8/12 checks ok" in capsys.readouterr().out
    failed = [r for r in map(json.loads, open(rep)) if not r["ok"]]
    assert [r["axiom"] for r in failed] == [
        "unit-left", "unit-right", "counit-left", "counit-right"]
    assert all(r["witness"] == 2 for r in failed)


SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_capped(argv):
    """The CLI in a fresh interpreter whose address space is capped at
    1.5 GB, so a verifier that materialises dense matrices runs out of
    memory instead of swamping the machine."""
    def cap():
        limit = 1536 * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return subprocess.run([sys.executable, "-m", "hopfcat.cli", *argv],
                          preexec_fn=cap, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=300)


@pytest.mark.parametrize("kind", ["dual", "bimonoid"])
def test_large_declared_dim_in_other_kinds(fixture_dir, tmp_path, kind):
    # as above, for the dual and bimonoid verifiers: d = 12 gave d^4-column
    # dense matrices and a MemoryError traceback under the cap
    if kind == "dual":
        src = open(fx(fixture_dir, "kz2_dual")).read()
        prefixes = ("alg-unit", "cocomp-counit")
    else:
        out = str(tmp_path / "kz2_bimonoid.hc")
        assert main(["--quiet", "transform", fx(fixture_dir, "kz2"),
                     "bimonoid", out]) == 0
        src = open(out).read()
        prefixes = ("monoid-unit", "comonoid-counit")
    assert "dim * * 2\n" in src
    path = tmp_path / f"{kind}_dim12.hc"
    path.write_text(src.replace("dim * * 2\n", "dim * * 12\n"))
    rep = str(tmp_path / "r.jsonl")
    done = run_capped(["--quiet", "--report", rep, "verify", str(path)])
    assert done.returncode == 1
    assert "Traceback" not in done.stderr and "Error" not in done.stderr
    failed = [r for r in map(json.loads, open(rep)) if not r["ok"]]
    assert [r["axiom"] for r in failed] == [
        p + side for p in prefixes for side in ("-left", "-right")]
    assert all(r["witness"] == 2 and r["failures"] == 10 for r in failed)


def test_hopf_module_over_a_failing_base(fixture_dir, tmp_path):
    # both files are well formed: the failing base is the verdict (exit 1,
    # report written), not a usage error
    src = open(fx(fixture_dir, "kz2")).read()
    assert "counit * * 1 1\n" in src
    (tmp_path / "kz2.hc").write_text(
        src.replace("counit * * 1 1\n", "counit * * 1 2\n"))
    path = tmp_path / "kz2_regular_hopf_module.hc"
    path.write_text(open(fx(fixture_dir, "kz2_regular_hopf_module")).read())
    rep = str(tmp_path / "r.jsonl")
    assert main(["--quiet", "--report", rep, "verify", str(path)]) == 1
    base = verify_structure(load(str(tmp_path / "kz2.hc")), "semihopf")
    assert not base.overall
    assert [json.loads(line) for line in open(rep)] \
        == reference_fold([it.record() for it in base.items])
    assert os.path.exists(rep + ".manifest.json")


def test_a_folded_report_keeps_every_failing_record(tmp_path, capsys):
    # a mutant of the 5-object pair groupoid fails in several families on
    # some of their 5^3 or 5^4 tuples: each failing record keeps its line,
    # and the folded passing lines count the rest of the stdout summary
    a = linearize_groupoid(pair_groupoid(tuple("abcde")), QQ)
    slot = next(slots(a, ["mult"]))
    path = str(tmp_path / "pair5_mutant.hc")
    save(path, mutate(a, [slot + (lambda v: v * 2 if v else QQ.one,)]))
    rep = str(tmp_path / "r.jsonl")
    capsys.readouterr()
    assert main(["--report", rep, "verify", path, "--strictness",
                 "--antipode-theorems"]) == 1
    total = int(re.search(r"(\d+)/(\d+) checks ok",
                          capsys.readouterr().out).group(2))
    base = verify_structure(load(path), "hopf")
    assert len({it.axiom for it in base.failed()}) > 3
    with open(rep, newline="") as fh:
        lines = fh.readlines()
    records = [json.loads(line) for line in lines]
    kept = [line for line, r in zip(lines, records) if not r["ok"]]
    assert kept == [it.json_line() for it in base.failed()]
    assert sum(r["folded"] for r in records if r["ok"]) + len(kept) \
        == total == len(base.items)


# -- transform ----------------------------------------------------------------------

def test_from_groupoid_matches_fixture(fixture_dir, tmp_path):
    out = str(tmp_path / "p2.hc")
    assert main(["--quiet", "transform", fx(fixture_dir, "pair2_groupoid"),
                 "from-groupoid", out]) == 0
    assert open(out).read() == open(fx(fixture_dir, "pair2")).read()


def test_from_groupoid_over_prime_field(fixture_dir, tmp_path):
    out = str(tmp_path / "p2f5.hc")
    assert main(["--quiet", "--field", "fp:5", "transform",
                 fx(fixture_dir, "pair2_groupoid"), "from-groupoid",
                 out]) == 0
    assert load(out).field == GF(5)


def test_from_graded_fixtures(fixture_dir, tmp_path):
    out = str(tmp_path / "g.hc")
    assert main(["--quiet", "transform",
                 fx(fixture_dir, "graded_z2_strong_graded"), "from-graded",
                 out]) == 0
    assert open(out).read() == open(fx(fixture_dir, "graded_z2_strong")).read()


def test_pack_pipeline(fixture_dir, tmp_path):
    out = str(tmp_path / "w.hc")
    assert main(["--quiet", "transform", fx(fixture_dir, "pair2"), "pack",
                 out]) == 0
    w = load(out)
    assert w.total_dim == 4
    out2 = str(tmp_path / "wd.hc")
    assert main(["--quiet", "transform", fx(fixture_dir, "pair2_dual"),
                 "pack-dual", out2]) == 0


def test_dualize_undualize_byte_identical(fixture_dir, tmp_path):
    for name in ("kz2", "kz3", "taft4", "pair2", "pair3", "disjoint",
                 "graded_z2_strong", "graded_z2_zero"):
        d = str(tmp_path / f"{name}.dual.hc")
        back = str(tmp_path / f"{name}.back.hc")
        assert main(["--quiet", "transform", fx(fixture_dir, name),
                     "dualize", d]) == 0
        assert main(["--quiet", "transform", d, "undualize", back]) == 0
        assert open(back).read() == open(fx(fixture_dir, name)).read()


def test_undualize_dualize_byte_identical(fixture_dir, tmp_path):
    first = str(tmp_path / "a.hc")
    second = str(tmp_path / "c.hc")
    assert main(["--quiet", "transform", fx(fixture_dir, "pair2_dual"),
                 "undualize", first]) == 0
    assert main(["--quiet", "transform", first, "dualize", second]) == 0
    assert open(second).read() == open(fx(fixture_dir, "pair2_dual")).read()


def test_transform_determinism(fixture_dir, tmp_path):
    a = str(tmp_path / "a.hc")
    b = str(tmp_path / "b.hc")
    for out in (a, b):
        assert main(["--quiet", "transform", fx(fixture_dir, "taft4"),
                     "opposite", out]) == 0
    assert open(a).read() == open(b).read()


def test_bimonoid_roundtrip_files(fixture_dir, tmp_path):
    bim = str(tmp_path / "b.hc")
    back = str(tmp_path / "back.hc")
    assert main(["--quiet", "transform", fx(fixture_dir, "kz3"), "bimonoid",
                 bim]) == 0
    assert main(["--quiet", "transform", bim, "unbimonoid", back]) == 0
    assert open(back).read() == \
        open(fx(fixture_dir, "kz3_stripped")).read()


def test_transform_kind_mismatch(fixture_dir, tmp_path):
    assert main(["--quiet", "transform", fx(fixture_dir, "kz2"),
                 "from-groupoid", str(tmp_path / "x.hc")]) == 2
    assert main(["--quiet", "transform", fx(fixture_dir, "pair2_groupoid"),
                 "pack", str(tmp_path / "x.hc")]) == 2


def test_transform_aborts_on_nonverifying_output(tmp_path):
    # a bialgebra whose square antipode map is inconsistent: packing a
    # hand-broken category must abort with the internal-breach code
    a = group_algebra(QQ, 2)
    a.antipode[("*", "*")] = [[QQ.one, QQ.one], [QQ.zero, QQ.zero]]
    src = str(tmp_path / "broken.hc")
    save(src, a)
    out = str(tmp_path / "w.hc")
    assert main(["--quiet", "transform", src, "pack", out]) == 3
    assert not os.path.exists(out)



@pytest.mark.parametrize("field", ["fp:4", "bogus", "fp:x", "fp:", "fp:1"])
def test_from_groupoid_rejects_a_bad_field(fixture_dir, tmp_path, capsys,
                                           field):
    out = tmp_path / "x.hc"
    capsys.readouterr()
    assert main(["--quiet", "--field", field, "transform",
                 fx(fixture_dir, "pair2_groupoid"), "from-groupoid",
                 str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --field '{field}': ")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("field", ["fp:4", "nosuch"])
@pytest.mark.parametrize("argv", [
    ["verify", "{in}"],
    ["transform", "{in}", "dualize", "{work}/out.hc"],
    ["analyze", "{in}", "can-ranks", "--out", "{work}/out.txt"],
], ids=["verify", "transform", "analyze"])
def test_every_command_rejects_a_bad_field(fixture_dir, tmp_path, capsys,
                                           field, argv):
    # --field is read by from-groupoid alone, but checked for every command
    # before anything is read or written
    work = tmp_path / "work"
    work.mkdir()
    capsys.readouterr()
    assert main(["--quiet", "--field", field, "--report",
                 str(work / "r.jsonl")]
                + [a.format(**{"in": fx(fixture_dir, "kz2"), "work": work})
                   for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --field '{field}': ")
    assert err.count("\n") == 1 and list(work.iterdir()) == []


UNWRITABLE = [
    ("--report", lambda fixture_dir, path: [
        "--quiet", "--report", path, "verify", fx(fixture_dir, "pair2")]),
    ("transform OUT", lambda fixture_dir, path: [
        "--quiet", "transform", fx(fixture_dir, "pair2"), "pack", path]),
    ("analyze --out listing", lambda fixture_dir, path: [
        "--quiet", "analyze", fx(fixture_dir, "kz2"), "integrals",
        "--out", path]),
    ("analyze --out structure", lambda fixture_dir, path: [
        "--quiet", "analyze", fx(fixture_dir, "kz2_stripped"),
        "recover-antipode", "--out", path]),
]


@pytest.mark.parametrize("argv", [argv for _, argv in UNWRITABLE],
                         ids=[name for name, _ in UNWRITABLE])
def test_an_output_path_that_cannot_be_written(fixture_dir, tmp_path, capsys,
                                               argv):
    # the error names the path given, not the temporary file of an atomic
    # write next to it
    path = str(tmp_path / "missing" / "out")
    capsys.readouterr()
    assert main(argv(fixture_dir, path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1 and ".hopfcat-" not in err


CLASHES = {
    "input": (["--report", "{in}", "verify", "{in}"], ["in.hc"]),
    "input manifest": (["--report", "{tmp}/in", "verify",
                        "{tmp}/in.manifest.json"], ["in.manifest.json"]),
    "input by symlink": (["--report", "link", "verify", "{in}"],
                         ["in.hc", "link"]),
    "input by hard link": (["--report", "{tmp}/link", "verify", "in.hc"],
                           ["in.hc", "link"]),
    "transform OUT": (["--report", "o.hc", "transform", "in.hc", "opposite",
                       "{tmp}/o.hc"], ["in.hc"]),
    "transform OUT by dangling symlink": (
        ["--report", "link", "transform", "in.hc", "opposite", "o.hc"],
        ["in.hc", "link"]),
    "transform OUT manifest": (["--report", "o", "transform", "{in}",
                                "opposite", "o.manifest.json"], ["in.hc"]),
    "analyze --out": (["--report", "{tmp}/L", "analyze", "in.hc",
                       "integrals", "--out", "L"], ["in.hc"]),
}


@pytest.mark.parametrize("clash", sorted(CLASHES))
def test_a_report_path_that_names_the_input_or_an_output(
        fixture_dir, tmp_path, monkeypatch, capsys, clash):
    # writing the report would replace the input, or be replaced by the
    # output: refused before anything is written, by real path
    argv, files = CLASHES[clash]
    monkeypatch.chdir(tmp_path)
    data = open(fx(fixture_dir, "kz2"), "rb").read()
    (tmp_path / files[0]).write_bytes(data)
    if "link" in files:
        target = "o.hc" if "dangling" in clash else files[0]
        (os.link if "hard" in clash else os.symlink)(target, "link")
    argv = [a.format(tmp=tmp_path, **{"in": files[0]}) for a in argv]
    capsys.readouterr()
    assert main(["--quiet"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --report {argv[1]} would overwrite ")
    assert err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == sorted(files)
    assert (tmp_path / files[0]).read_bytes() == data


def test_a_report_path_of_the_same_name_elsewhere(fixture_dir, tmp_path,
                                                  monkeypatch):
    # the name of the input or of the output, in another directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "in.hc").write_bytes(open(fx(fixture_dir, "kz2"), "rb").read())
    for report in ("sub/in.hc", "sub/o.hc"):
        assert main(["--quiet", "--report", report, "transform", "in.hc",
                     "opposite", "o.hc"]) == 0
    assert sorted(os.listdir("sub")) == [
        "in.hc", "in.hc.manifest.json", "o.hc", "o.hc.manifest.json"]


# A Hopf module m.hc names its base on its `base` line; the base is b.hc,
# or b.manifest.json where the manifest of a report is to name it.
BASE_CLASHES = {
    "report names the base": (
        "b", ["--report", "b.hc", "verify", "m.hc"]),
    "report names the base by its full path": (
        "b", ["--report", "{tmp}/b.hc", "analyze", "m.hc", "coinvariants"]),
    "manifest names the base": (
        "b.manifest.json", ["--report", "b", "verify", "m.hc"]),
    "report names the base by symlink": (
        "b", ["--report", "link", "verify", "m.hc"]),
    "listing names the base": (
        "b", ["analyze", "m.hc", "coinvariants", "--out", "b.hc"]),
    "listing names the base by symlink": (
        "b", ["analyze", "m.hc", "coinvariants", "--out", "link"]),
    "listing names the input": (
        "b", ["analyze", "b.hc", "integrals", "--out", "b.hc"]),
    "can-ranks listing names the input by symlink": (
        "b", ["analyze", "b.hc", "can-ranks", "--out", "link"]),
}


@pytest.mark.parametrize("clash", sorted(BASE_CLASHES))
def test_an_output_that_names_a_file_read(fixture_dir, tmp_path, monkeypatch,
                                          capsys, clash):
    # the input's base file, or the input itself under a listing --out:
    # refused before anything is written, which the files read survive
    base, argv = BASE_CLASHES[clash]
    monkeypatch.chdir(tmp_path)
    base_file = base if base.endswith(".json") else base + ".hc"
    files = {base_file: open(fx(fixture_dir, "kz2"), "rb").read(),
             "m.hc": open(fx(fixture_dir, "kz2_regular_hopf_module"),
                          "rb").read().replace(b"base kz2\n",
                                               f"base {base}\n".encode())}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    if "symlink" in clash:
        os.symlink(base_file, "link")
    argv = [a.format(tmp=tmp_path) for a in argv]
    capsys.readouterr()
    assert main(["--quiet"] + argv) == 2
    err = capsys.readouterr().err
    flag = "--report" if argv[0] == "--report" else "--out"
    assert err.startswith(f"error: {flag} {argv[argv.index(flag) + 1]} "
                          "would overwrite the ")
    assert err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == sorted(
        [*files, *(["link"] if "symlink" in clash else [])])
    for name, data in files.items():
        assert (tmp_path / name).read_bytes() == data


def test_a_module_loaded_from_a_file_keeps_its_base_path(fixture_dir):
    m = load(fx(fixture_dir, "kz2_regular_hopf_module"))
    assert m._base_name == "kz2"
    assert m._base_path == os.path.join(fixture_dir, "kz2.hc")
    assert not hasattr(load(fx(fixture_dir, "kz2")), "_base_path")


OUTPUTS = {
    "transform": lambda fixture_dir, out: [
        "transform", fx(fixture_dir, "pair2"), "pack", out],
    "recover-antipode": lambda fixture_dir, out: [
        "analyze", fx(fixture_dir, "pair2_stripped"), "recover-antipode",
        "--out", out],
    "integrals": lambda fixture_dir, out: [
        "analyze", fx(fixture_dir, "kz2"), "integrals", "--out", out],
    "can-ranks": lambda fixture_dir, out: [
        "analyze", fx(fixture_dir, "kz3"), "can-ranks", "--out", out],
    "coinvariants": lambda fixture_dir, out: [
        "analyze", fx(fixture_dir, "kz2_regular_hopf_module"),
        "coinvariants", "--out", out],
}


@pytest.mark.parametrize("command", sorted(OUTPUTS))
def test_an_unwritable_report_leaves_no_output(fixture_dir, tmp_path,
                                               command):
    out, rep = tmp_path / "out", str(tmp_path / "missing" / "r.jsonl")
    argv = OUTPUTS[command](fixture_dir, str(out))
    assert main(["--quiet"] + argv) == 0 and out.exists()
    out.unlink()
    assert main(["--quiet", "--report", rep] + argv) == 2
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", sorted(OUTPUTS))
def test_an_unwritable_output_leaves_no_report(fixture_dir, tmp_path,
                                               command):
    rep = str(tmp_path / "r.jsonl")
    out = str(tmp_path / "missing" / "out")
    argv = ["--quiet", "--report", rep] + OUTPUTS[command](fixture_dir, out)
    assert main(argv) == 2
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
@pytest.mark.parametrize("command", ["transform", "recover-antipode"])
def test_a_written_structure_has_the_mode_of_open(fixture_dir, tmp_path,
                                                  command, umask):
    # 0666 less the umask, as open(path, "w") gives a new file, not the
    # 0600 of the temporary file it is renamed from
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert main(["--quiet"] + OUTPUTS[command](fixture_dir, str(out))) \
            == 0
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask \
        == stat.S_IMODE((tmp_path / "plain").stat().st_mode)


# -- analyze ------------------------------------------------------------------------

def test_analyze_recover_antipode(fixture_dir, tmp_path):
    out = str(tmp_path / "rec.hc")
    assert main(["--quiet", "analyze", fx(fixture_dir, "taft4_stripped"),
                 "recover-antipode", "--out", out]) == 0
    assert open(out).read() == open(fx(fixture_dir, "taft4")).read()


def test_analyze_recover_antipode_failure(fixture_dir, capsys):
    assert main(["analyze", fx(fixture_dir, "idempotent"),
                 "recover-antipode"]) == 1
    out = capsys.readouterr().out
    assert "rank 3" in out


def test_analyze_integrals(fixture_dir, tmp_path, capsys):
    listing = str(tmp_path / "ints.txt")
    assert main(["analyze", fx(fixture_dir, "kz2"), "integrals",
                 "--out", listing]) == 0
    text = open(listing).read()
    assert "dimension 1" in text
    assert "(1, 0)" in text


def test_analyze_integrals_builds_the_dual_module_once(fixture_dir,
                                                      monkeypatch):
    builds = []
    for name in ("dual_hopf_module", "coinvariants"):
        def counted(*args, name=name, fn=getattr(fundamental, name)):
            builds.append(name)
            return fn(*args)
        monkeypatch.setattr(fundamental, name, counted)
    assert main(["--quiet", "analyze", fx(fixture_dir, "pair3"),
                 "integrals"]) == 0
    assert sorted(builds) == ["coinvariants", "dual_hopf_module"]


def test_analyze_coinvariants(fixture_dir, capsys):
    assert main(["analyze", fx(fixture_dir, "kz2_regular_hopf_module"),
                 "coinvariants"]) == 0
    assert "dimension 1" in capsys.readouterr().out


def test_analyze_can_ranks(fixture_dir, capsys):
    assert main(["analyze", fx(fixture_dir, "kz3"), "can-ranks"]) == 0
    assert main(["analyze", fx(fixture_dir, "idempotent"), "can-ranks"]) == 1
    assert "SINGULAR" in capsys.readouterr().out


def test_analyze_strictness(fixture_dir):
    assert main(["--quiet", "analyze", fx(fixture_dir, "pair3"),
                 "strictness"]) == 0
    assert main(["--quiet", "analyze", fx(fixture_dir, "disjoint"),
                 "strictness"]) == 1
    assert main(["--quiet", "analyze", fx(fixture_dir, "graded_z2_strong"),
                 "strictness"]) == 0
    assert main(["--quiet", "analyze", fx(fixture_dir, "graded_z2_zero"),
                 "strictness"]) == 1


# -- one process, many calls --------------------------------------------------------

def test_consecutive_calls_share_nothing(fixture_dir, tmp_path, capsys):
    """The parser is built once per process; no option of one call carries
    into the next.  Each call's exit code, output and files must be those of
    the same call on a freshly built parser."""
    out = tmp_path / "out"
    out.mkdir()
    rep, listing = str(out / "r.jsonl"), str(out / "ints.txt")
    calls = [
        ["--report", rep, "verify", fx(fixture_dir, "idempotent"),
         "--level", "category"],
        ["verify", fx(fixture_dir, "idempotent_candidate_identity")],
        ["verify", fx(fixture_dir, "disjoint"), "--strictness"],
        ["verify", fx(fixture_dir, "disjoint")],
        ["--quiet", "analyze", fx(fixture_dir, "kz2"), "integrals",
         "--out", listing],
        ["analyze", fx(fixture_dir, "kz2"), "integrals"],
        ["--seed", "1", "verify", fx(fixture_dir, "kz2")],
        ["verify", fx(fixture_dir, "kz2")],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as e:
            code = ("exit", e.code)
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        for p in out.iterdir():
            p.unlink()
        return code, capsys.readouterr(), files

    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert [r[0] for r in fresh] == [0, 1, 1, 0, 0, 0, ("exit", 2), 0]
    assert cli.build_parser() is cli.build_parser()
    assert [run(argv) for argv in calls] == fresh


# -- dispatch: one row per kind and per op ------------------------------------------

# one fixture of each kind, and the kind each op takes, written out here rather
# than read from the CLI's tables
KIND_FIXTURES = {
    "hopf-category": "kz2",
    "dual-hopf-category": "kz2_dual",
    "weak-hopf": "pair3_packed",
    "groupoid": "pair2_groupoid",
    "graded-hopf": "graded_z2_strong_graded",
    "module": "kz2_regular_module",
    "comodule": "kz2_dual_regular_comodule",
    "hopf-module": "kz2_regular_hopf_module",
    "bimonoid": "kz2_bimonoid",
}
TRANSFORM_TAKES = {
    "from-groupoid": "groupoid", "from-graded": "graded-hopf",
    "dualize": "hopf-category", "undualize": "dual-hopf-category",
    "pack": "hopf-category", "pack-dual": "dual-hopf-category",
    "opposite": "hopf-category", "coopposite": "hopf-category",
    "opcop": "hopf-category", "bimonoid": "hopf-category",
    "unbimonoid": "bimonoid",
}
ANALYSIS_TAKES = {
    "recover-antipode": "hopf-category", "integrals": "hopf-category",
    "coinvariants": "hopf-module", "can-ranks": "hopf-category",
    "strictness": "hopf-category",
}
# what --out receives from each analysis; None refuses --out
ANALYSIS_OUT = {
    "recover-antipode": "structure", "integrals": "listing",
    "coinvariants": "listing", "can-ranks": "listing", "strictness": None,
}


def test_every_kind_read_but_hopf_category_has_a_verifier():
    assert set(fileformat._CLASSES) == set(KIND_FIXTURES)
    assert set(cli._VERIFIERS) == \
        set(fileformat._CLASSES.values()) - {core.HopfCatData}


def test_each_op_has_one_row():
    assert set(TRANSFORM_TAKES) == set(cli._TRANSFORMS)
    assert set(ANALYSIS_TAKES) == set(cli._ANALYSES)
    assert {op: row[2] for op, row in cli._ANALYSES.items()} == ANALYSIS_OUT
    assert cli._LISTINGS == ("integrals", "coinvariants", "can-ranks")


@pytest.mark.parametrize("op", ANALYSIS_OUT)
def test_every_analysis_writes_out_or_refuses_it(fixture_dir, tmp_path,
                                                 capsys, op):
    # a refusal writes neither --out nor the report
    out, rep = tmp_path / "F", tmp_path / "R"
    capsys.readouterr()
    code = main(["--quiet", "--report", str(rep), "analyze",
                 fx(fixture_dir, KIND_FIXTURES[ANALYSIS_TAKES[op]]), op,
                 "--out", str(out)])
    if ANALYSIS_OUT[op] is None:
        assert code == 2 and not out.exists() and not rep.exists()
        assert capsys.readouterr().err \
            == f"error: {op} writes nothing to --out\n"
    else:
        assert code == 0 and out.exists() and rep.exists()


def _by_kind(fixture_dir, tmp_path, capsys, argv) -> dict:
    """The exit code and stderr of ``argv`` on each kind's fixture, by kind,
    after checking that a refusal leaves no report behind."""
    out = {}
    for kind, name in KIND_FIXTURES.items():
        rep = tmp_path / "r.jsonl"
        capsys.readouterr()
        code = main(["--quiet", "--report", str(rep)]
                    + [fx(fixture_dir, name) if a is None else a
                       for a in argv])
        out[kind] = code, capsys.readouterr().err
        assert rep.exists() == (code != 2)
        if rep.exists():
            rep.unlink()
    return out


@pytest.mark.parametrize("op", TRANSFORM_TAKES)
def test_a_transform_refuses_exactly_the_kinds_it_does_not_take(
        fixture_dir, tmp_path, capsys, op):
    got = _by_kind(fixture_dir, tmp_path, capsys,
                   ["transform", None, op, str(tmp_path / "out.hc")])
    assert got == {
        kind: (0, "") if kind == TRANSFORM_TAKES[op] else
        (2, f"error: op '{op}' does not accept kind '{kind}'\n")
        for kind in KIND_FIXTURES}


@pytest.mark.parametrize("op", ANALYSIS_TAKES)
def test_an_analysis_refuses_exactly_the_kinds_it_does_not_take(
        fixture_dir, tmp_path, capsys, op):
    out = ["--out", str(tmp_path / "out")] if ANALYSIS_OUT[op] else []
    got = _by_kind(fixture_dir, tmp_path, capsys, ["analyze", None, op] + out)
    assert got == {
        kind: (0, "") if kind == ANALYSIS_TAKES[op] else
        (2, f"error: {op} needs a {ANALYSIS_TAKES[op]} file\n")
        for kind in KIND_FIXTURES}


@pytest.mark.parametrize("flags,named", [
    (["--level", "category"], "--level"),
    (["--level", "hopf"], "--level"),
    (["--strictness"], "--strictness"),
    (["--antipode-theorems"], "--antipode-theorems"),
    (["--antipode-theorems", "--strictness"], "--strictness"),
    (["--strictness", "--level", "semihopf"], "--level"),
])
def test_verify_options_are_refused_on_every_other_kind(
        fixture_dir, tmp_path, capsys, flags, named):
    got = _by_kind(fixture_dir, tmp_path, capsys, ["verify", None] + flags)
    assert got.pop("hopf-category") == (0, "")
    assert got == {kind: (2, f"error: {named} only applies to "
                             "hopf-category files\n") for kind in got}


def test_rows_look_their_functions_up_at_call_time(fixture_dir, tmp_path,
                                                   monkeypatch):
    """A row that held the function bound at import would miss a swap of
    the module-level name, as perfbench's tracer makes."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)
    for name in ("dualize", "verify_dual", "integrals"):
        counting(name, getattr(cli, name))
    out = str(tmp_path / "d.hc")
    assert main(["--quiet", "transform", fx(fixture_dir, "kz2"), "dualize",
                 out]) == 0
    assert calls == ["dualize", "verify_dual"]     # the output's self-check
    assert main(["--quiet", "verify", fx(fixture_dir, "kz2_dual")]) == 0
    assert main(["--quiet", "analyze", fx(fixture_dir, "kz2"),
                 "integrals"]) == 0
    assert calls == ["dualize", "verify_dual", "verify_dual", "integrals"]
