"""The benchmark's hard-coded view of the pipeline, checked against the
package: each workload's config must load as a ``PipelineConfig`` and the
artifact list its output check demands must be the one the stage table
writes.  A change that adds, renames or drops an artifact or a config field
fails here rather than in every benchmark run.  The test only reads
``perfbench/``."""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from shotfactor.pipeline import STAGES, PipelineConfig, load_config

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py as a module; it imports tracer.py beside it."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("smoke", [False, True])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_config_and_artifacts_match_the_stage_table(
    bench, tmp_path, name, smoke
):
    workload = bench.Workload(name, 0, tmp_path, smoke=smoke)
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert set(workload.cfg) <= fields
    config = load_config(workload.config_path)
    written = [out.format(**vars(config)) for st in STAGES for out in st.outputs]
    written += ["pipeline_manifest.txt", "pipeline_state.txt"]
    assert bench.artifact_names(workload.cfg) == written
