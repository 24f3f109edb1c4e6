"""Smoke test of the benchmark's layer tracer on a tiny cohort, so that a
change which removes a function or field the tracer reads (``lgcp.ess_step``,
``EfficiencyFit.config``, the backend kernel names) or runs a stage around
``StageRunner.run`` fails here rather than at the next benchmark run.  The
test only reads ``perfbench/``."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CONFIG = """\
tile_x = 5.0
tile_y = 5.0
n_players = 4
k_star = 2
budget_min = 60
budget_max = 80
k = 2
k_list = [1, 2]
restarts = 1
nmf_iters = 10
lgcp_burn_in = 3
lgcp_samples = 3
lgcp_thinning = 1
lvm_sweeps = 10
lvm_burn_in = 2
min_attempts = 10
shots = data/shots.csv
out = artifacts
"""


def test_traced_pipeline_reports_sampler_work(tmp_path):
    (tmp_path / "config.txt").write_text(CONFIG)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run(*argv):
        return subprocess.run(
            [sys.executable, *argv, "--config", "config.txt"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    synth = run("-m", "shotfactor", "synth", "--out", "data")
    assert synth.returncode == 0, synth.stderr
    traced = run(str(ROOT / "perfbench" / "tracer.py"), "trace.json", "pipeline")
    assert traced.returncode == 0, traced.stderr
    metrics = json.loads((tmp_path / "trace.json").read_text())["metrics"]
    stages = ("ingest", "lgcp", "factorize", "efficiency", "evaluate")
    names = ["lgcp.ess_moves", "lgcp.loglik_evals", "efficiency.sweeps_per_s"]
    names += [f"pipeline.stage_s.{stage}" for stage in stages]
    for name in names:
        assert metrics[name] > 0, name
    # each slice proposal goes through a traced kernel, and so does each
    # sweep's type draw
    assert metrics["lgcp.evals_per_move"] >= 1
    assert metrics["efficiency.slice_evals_per_sweep"] >= 1
    assert metrics["backend.draw_type_indices.calls"] > 0
