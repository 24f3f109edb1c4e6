"""Smoke tests of the benchmark itself: metric coverage and the output check.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_units(trace):
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (4 if trace else 3)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected_units(trace)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] != 0 for m in result["metrics"].values())


def test_workloads_match_the_spec():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert expected_units(0) == run.END_TO_END_UNITS


@pytest.fixture
def workload():
    work = run.WORK / f"test-{time.monotonic_ns()}"
    work.mkdir(parents=True)
    try:
        yield run.Workload("cohort60", 5, work, smoke=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass


def test_output_check_rejects_truncated_artifacts(workload):
    deadline = time.perf_counter() + 120
    workload.setup(deadline)
    child, problems, out = workload.run(deadline)
    assert child["code"] == 0 and problems == []
    assert set(run.quality(out, workload.cfg)) == {"heldout_ll", "recovery_cos", "make_ll"}

    for name in ("surfaces.csv", "eval_report.csv", "efficiency_surfaces.csv"):
        backup = (out / name).read_bytes()
        (out / name).write_bytes(backup[: len(backup) // 2])
        problems, _ = run.check_outputs(out, workload.cfg)
        assert any(name in p for p in problems), (name, problems)
        (out / name).write_bytes(backup)
    assert run.check_outputs(out, workload.cfg)[0] == []

    (out / "eval_report.txt").unlink()
    problems, _ = run.check_outputs(out, workload.cfg)
    assert problems and "eval_report.txt" in problems[0]


def test_output_check_rejects_changed_checksums(workload):
    deadline = time.perf_counter() + 120
    workload.setup(deadline)
    _, problems, out = workload.run(deadline)
    assert problems == []
    reference = dict(workload.reference, **{"surfaces.csv": "0" * 64})
    problems, _ = run.check_outputs(out, workload.cfg, reference)
    assert any("earlier run" in p for p in problems)
