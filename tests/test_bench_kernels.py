"""Smoke test of the checked-in kernel timer, so that an API change which
breaks it fails here rather than at the next measurement."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TIMED = [
    "poisson_field_loglik",
    "bernoulli_logits_loglik",
    "type_weights",
    "draw_type_indices",
    "sq_exp_matrix",
    "aggregate_outcomes",
    "mixture_probability_surface",
    "sample_field (350 tiles)",
    "sample_field (1750 tiles)",
    "kl_loss (60 x 350)",
    "kl_loss (12 x 1750)",
    "fit_nmf kl (60 x 350, K=8)",
]


def test_one_repeat_prints_one_line_per_timed_kernel():
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"), "--repeats", "1"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    timed = re.findall(r"^(\S.*?)\s+\d+\.\d{3}ms$", result.stdout, flags=re.M)
    assert timed == TIMED
