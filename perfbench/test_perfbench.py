"""Tests of the benchmark itself, on its smoke mode.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload):
    result, _ = run.run(workload, 3, 0, trace=False, smoke=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run_reports_every_layer_metric(workload):
    result, lines = run.run(workload, 3, 0, trace=True, smoke=True)
    assert result["correct"], lines
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == units("per_layer")
    self_ms = sum(metrics[f"{m}.self_ms"]["value"] for m in run.MODULES)
    assert self_ms == pytest.approx(metrics["cli.job_ms"]["value"])
    # every layer time is measured on every workload, the verify level split
    # included
    assert all(v["value"] > 0 for v in metrics.values() if v["unit"] == "ms")
    # --report makes every job parse its input a second time for the digest
    assert metrics["fileformat.parse_calls"]["value"] >= 2


def test_hom_dim_builds_no_prime_field_elements():
    result, _ = run.run("hom-dim", 3, 0, trace=True, smoke=True)
    assert result["metrics"]["scalars.fp_elements_built"]["value"] == 0
    assert result["metrics"]["linalg.entries_materialized"]["value"] > 0


def plant_exit(jobs):
    jobs[0].exit = 1 - jobs[0].exit


def plant_axiom(jobs):
    next(j for j in jobs if j.axiom).axiom = "no-such-axiom"


def plant_bytes(jobs):
    job = next(j for j in jobs if j.same_as)
    job.same_as = next(j.argv[-1] for j in jobs
                       if j.argv[3] == "verify" and j.argv[-1] != job.same_as)


@pytest.mark.parametrize("workload,plant", [
    ("hom-dim", plant_exit), ("hom-dim", plant_axiom),
    ("many-objects", plant_bytes), ("dense-fp", plant_bytes)])
def test_a_wrong_expected_answer_counts_as_failed(workload, plant):
    lib, jobs, _ = run.Setups(workload, 3, True, False).next()
    plant(jobs)
    loop = run.Loop(lib, jobs)
    loop.one_pass()
    assert len(loop.failures) == 1


def test_same_seed_writes_the_same_bytes(tmp_path):
    lib = run.import_hopfcat()
    digests = [workloads.build(lib, "hom-dim", str(tmp_path / str(n)),
                               seed)[1].digest()
               for n, seed in enumerate((5, 5, 6))]
    assert digests[0] == digests[1] != digests[2]


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "hom-dim", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_only_traced_runs_carry_the_tour(tmp_path):
    lib = run.import_hopfcat()

    def tour_jobs(with_tour):
        jobs, _ = workloads.build(lib, "dense-fp", str(tmp_path / "t"), 3,
                                  True, with_tour)
        return [j for j in jobs if any("tour" in a for a in j.argv)]
    assert not tour_jobs(False)
    assert tour_jobs(True)
