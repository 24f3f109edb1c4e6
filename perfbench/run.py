"""Whole-pipeline benchmark for shotfactor.

    python3 perfbench/run.py --workload cohort60 --seed 0 --seconds 30 --trace 0

Run from the repository root.  The benchmark generates the workload's inputs
with ``shotfactor synth`` from ``--seed`` and runs ``python -m shotfactor
pipeline`` from ``src/`` as a child process, cold, into a fresh artifact
directory, again and again for ``--seconds``; set-ups and runs interleave.
Every run's outputs are checked; a run that fails the check counts as
failed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records machine and code
facts.

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
runs).  With ``--trace 1`` untraced and traced runs alternate; a traced run
goes through ``tracer.py``, and the metrics are the per-layer ones (medians
over the traced runs) plus the tracing overhead.  ``--smoke`` shrinks every
workload so that a run takes seconds; the benchmark's own tests use it.

See README.md in this directory for why each workload exists and which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

# A run must end within 180 s: no child starts once it could end past this.
DEADLINE_S = 160.0
MIN_RUNS = 3
SETUP_REPEATS = 3

# Chain and iteration lengths, cut from the package defaults (ESS 500 + 500x2,
# NMF 5 restarts x 2000 iterations, Gibbs 2000 sweeps) so that the cohort
# pipeline takes about 7 s and a benchmark run fits its time budget.  The
# problem shapes (players, tiles, K list, shots) are the full ones.
CHAINS = {
    "lgcp_burn_in": 50,
    "lgcp_samples": 50,
    "lgcp_thinning": 2,
    "restarts": 2,
    "nmf_iters": 200,
    "lvm_sweeps": 300,
    "lvm_burn_in": 100,
}
SMOKE_CHAINS = {
    "lgcp_burn_in": 3,
    "lgcp_samples": 3,
    "lgcp_thinning": 1,
    "restarts": 1,
    "nmf_iters": 10,
    "lvm_sweeps": 10,
    "lvm_burn_in": 2,
}

COHORT = {"tile_x": 2.5, "tile_y": 2.0, "n_players": 60, "k_list": [1, 2, 4, 6, 8, 12]}
# Twelve players with the default budget spread (100-366 shots) make the
# quality metrics swing by a fifth from seed to seed; a fixed budget keeps
# the fine grid a fixed-size problem (about 3.3k shots).
FINE = {
    "tile_x": 1.0,
    "tile_y": 1.0,
    "n_players": 12,
    "budget_min": 275,
    "budget_max": 275,
    "k_list": [4],
}

# name -> (problem shape, smoke shape, resume from a warm artifact directory)
WORKLOADS = {
    "cohort60": (COHORT, {"n_players": 14, "k_list": [1, 4]}, False),
    "fine_grid": (FINE, {"n_players": 6}, False),
    "resume_efficiency": (COHORT, {"n_players": 14, "k_list": [1, 4]}, True),
}

EFFICIENCY_ARTIFACTS = (
    "efficiency_beta.csv",
    "efficiency_global.csv",
    "efficiency_surfaces.csv",
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "heldout_ll": "nats/player",
    "recovery_cos": "cosine",
    "make_ll": "nats/shot",
}

UNIT_VOLUME_TOL = 1e-9


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing sources, failed setup)."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_child(argv, cwd, log_path, deadline) -> dict:
    """Run one process to exit; wall time is spawn to exit, RSS its own peak."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(argv[1:3]))
    start = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT
        )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        timer.join()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return {
        "wall_s": time.perf_counter() - start,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "code": proc.returncode,
        "log": str(log_path),
    }


def log_tail(child) -> str:
    with open(child["log"], errors="replace") as f:
        return "".join(f.readlines()[-5:]).strip()


# ---------------------------------------------------------------------------
# Output check and quality metrics
# ---------------------------------------------------------------------------


def artifact_names(cfg) -> list:
    factors = f"factors_kl_k{cfg['k']}"
    return [
        "shots_train.csv",
        "shots_test.csv",
        "counts_train.csv",
        "counts_test.csv",
        "surfaces.csv",
        "surfaces_meta.txt",
        f"{factors}_W.csv",
        f"{factors}_B.csv",
        f"{factors}_manifest.txt",
        *EFFICIENCY_ARTIFACTS,
        "eval_report.csv",
        "eval_per_player.csv",
        "eval_report.txt",
        "pipeline_manifest.txt",
        "pipeline_state.txt",
    ]


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_grid_csv(path):
    """A grid-headed CSV: returns (tile geometry, {label: [values]})."""
    with open(path, newline="") as f:
        parts = f.readline().split()
        if len(parts) not in (5, 6) or parts[:2] != ["#", "grid"]:
            raise ValueError(f"{path.name}: malformed grid header")
        width, length, tx = (float(p) for p in parts[2:5])
        ty = float(parts[5]) if len(parts) == 6 else tx
        geometry = {
            "width": width,
            "length": length,
            "tx": tx,
            "ty": ty,
            "nx": math.ceil(width / tx),
            "ny": math.ceil(length / ty),
        }
        rows = {row[0]: [float(v) for v in row[1:]] for row in csv.reader(f)}
    n_tiles = geometry["nx"] * geometry["ny"]
    if not rows or any(len(r) != n_tiles for r in rows.values()):
        raise ValueError(f"{path.name}: rows do not all have {n_tiles} tiles")
    return geometry, rows


def check_outputs(out_dir: Path, cfg, reference=None):
    """Problems found in one run's artifacts, and its recorded checksums.

    Checks that all 17 artifacts exist, that each matches the checksum the
    pipeline recorded, that the summary has 5 models x len(k_list) rows, that
    every intensity surface has unit volume, that make probabilities lie in
    (0, 1), and that the checksums equal ``reference`` (an earlier run with
    the same seed) when one is given.
    """
    missing = [n for n in artifact_names(cfg) if not (out_dir / n).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"], None
    problems = []
    try:
        with open(out_dir / "pipeline_state.txt") as f:
            sums = json.load(f)["artifacts"]
    except (ValueError, KeyError) as exc:
        return [f"pipeline_state.txt unreadable: {exc}"], None
    expected = set(artifact_names(cfg)) - {"pipeline_manifest.txt", "pipeline_state.txt"}
    if set(sums) != expected:
        problems.append("pipeline_state.txt does not list the 15 stage artifacts")
    for name, digest in sorted(sums.items()):
        path = out_dir / name
        if not path.is_file() or sha256(path) != digest:
            problems.append(f"{name} does not match its recorded checksum")
    if reference is not None and sums != reference:
        problems.append("checksums differ from an earlier run with the same seed")
    with open(out_dir / "eval_report.csv", newline="") as f:
        n_rows = sum(1 for _ in csv.reader(f)) - 1
    if n_rows != 5 * len(cfg["k_list"]):
        problems.append(f"eval_report.csv has {n_rows} rows, not 5 x {len(cfg['k_list'])}")
    try:
        geometry, surfaces = read_grid_csv(out_dir / "surfaces.csv")
        area = geometry["tx"] * geometry["ty"]
        bad = [p for p, r in surfaces.items() if abs(math.fsum(r) * area - 1.0) > UNIT_VOLUME_TOL]
        if bad:
            problems.append(f"surfaces without unit volume: {', '.join(bad[:5])}")
        _, probs = read_grid_csv(out_dir / "efficiency_surfaces.csv")
        if any(not 0.0 < p < 1.0 for r in probs.values() for p in r):
            problems.append("efficiency_surfaces.csv has a probability outside (0, 1)")
    except ValueError as exc:
        problems.append(str(exc))
    return problems, sums


def quality(out_dir: Path, cfg) -> dict:
    """heldout_ll, recovery_cos and make_ll read from a checked artifact set."""
    with open(out_dir / "eval_report.csv", newline="") as f:
        lgcp = [row for row in csv.DictReader(f) if row["model"] == "lgcp"]
    heldout = float(lgcp[0]["mean"])

    recovery = None
    with open(out_dir / "eval_report.txt") as f:
        lines = f.read().split("basis recovery", 1)[1].splitlines()
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "nmf_kl" and int(parts[1]) == cfg["k_star"]:
            recovery = float(parts[2])
    if recovery is None:
        raise ValueError(f"eval_report.txt has no nmf_kl recovery at K={cfg['k_star']}")

    g, surfaces = read_grid_csv(out_dir / "efficiency_surfaces.csv")
    total, n = 0.0, 0
    with open(out_dir / "shots_test.csv", newline="") as f:
        for row in csv.DictReader(f):
            ix = min(int(float(row["x"]) // g["tx"]), g["nx"] - 1)
            iy = min(int(float(row["y"]) // g["ty"]), g["ny"] - 1)
            p = surfaces[row["player"]][iy * g["nx"] + ix]
            total += math.log(p) if row["made"] == "1" else math.log1p(-p)
            n += 1
    return {"heldout_ll": heldout, "recovery_cos": recovery, "make_ll": total / n}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """One workload's config, inputs and runs inside a private work directory."""

    def __init__(self, name, seed, work: Path, smoke=False):
        shape, smoke_shape, self.resume = WORKLOADS[name]
        self.name = name
        self.work = work
        self.cfg = {
            **shape,
            **(SMOKE_CHAINS if smoke else CHAINS),
            **(smoke_shape if smoke else {}),
            "k_star": 4,
            "k": 4,
            "seed": seed,
            "shots": "data/shots.csv",
            "out": "artifacts",
        }
        self.config_path = work / "config.txt"
        with open(self.config_path, "w") as f:
            for key, value in self.cfg.items():
                f.write(f"{key} = {json.dumps(value)}\n")
        self.reference = None  # checksums of the first good run (or warm dir)
        self.shots_sha = None
        self.runs = 0

    def _argv(self, command, out, trace_path=None):
        prefix = [sys.executable, "-m", "shotfactor"]
        if trace_path is not None:
            prefix = [sys.executable, str(HERE / "tracer.py"), str(trace_path)]
        return prefix + [command, "--config", str(self.config_path), "--out", out]

    def _child(self, argv, label, deadline):
        child = run_child(argv, self.work, self.work / f"{label}.log", deadline)
        print(
            f"[{self.name}] {label}: {child['wall_s']:.3f} s, exit {child['code']}",
            file=sys.stderr,
        )
        return child

    def synth(self, deadline, data="data", trace_path=None):
        shutil.rmtree(self.work / data, ignore_errors=True)
        child = self._child(self._argv("synth", data, trace_path), f"synth-{data}", deadline)
        if child["code"] != 0:
            raise BenchError(f"synth failed: {log_tail(child)}")
        digest = sha256(self.work / data / "shots.csv")
        if self.shots_sha not in (None, digest):
            raise BenchError("synth wrote different shots for the same seed")
        self.shots_sha = digest
        return child

    def setup(self, deadline) -> float:
        """Build the inputs (and the warm directory); returns seconds taken."""
        seconds = self.synth(deadline)["wall_s"]
        if self.resume:
            shutil.rmtree(self.work / "warm", ignore_errors=True)
            child = self._child(self._argv("pipeline", "warm"), "warm", deadline)
            problems = [f"exit {child['code']}"] if child["code"] else []
            if not problems:
                problems, sums = check_outputs(self.work / "warm", self.cfg, self.reference)
                self.reference = sums
            if problems:
                raise BenchError(f"warm pipeline run failed: {problems} {log_tail(child)}")
            seconds += child["wall_s"]
        return seconds

    def run(self, deadline, trace_path=None):
        """One pipeline run; returns (child, problems, out_dir)."""
        out = self.work / f"out{self.runs}"
        self.runs += 1
        shutil.rmtree(out, ignore_errors=True)
        if self.resume:
            shutil.copytree(self.work / "warm", out)
            for name in EFFICIENCY_ARTIFACTS:
                (out / name).unlink()
        label = ("traced" if trace_path else "run") + str(self.runs)
        child = self._child(self._argv("pipeline", out.name, trace_path), label, deadline)
        if child["code"] != 0:
            return child, [f"exit {child['code']}: {log_tail(child)}"], out
        problems, sums = check_outputs(out, self.cfg, self.reference)
        if self.reference is None and not problems:
            self.reference = sums
        return child, problems, out


def artifact_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def measure(wl: Workload, seconds, trace, deadline) -> dict:
    """Set up, then run for a share of ``seconds``; returns every record.

    Untraced, the set-up is repeated SETUP_REPEATS times and each is followed
    by its share of the runs, so that the runs spread over the whole
    invocation and a slow spell of a shared machine weighs less on their
    median.  Traced, one set-up is followed by alternating untraced and
    traced runs, at least two of each.
    """
    runs = {"plain": [], "traced": []}
    setup_times = []
    failures = []
    quality_metrics = None
    out_bytes = None
    blocks = 1 if trace else SETUP_REPEATS
    for _ in range(blocks):
        setup_times.append(wl.setup(deadline))
        start = time.perf_counter()
        block_runs = 0
        while True:
            traced = bool(trace) and len(runs["traced"]) < len(runs["plain"])
            trace_path = wl.work / f"trace{wl.runs}.json" if traced else None
            child, problems, out = wl.run(deadline, trace_path)
            block_runs += 1
            if problems:
                failures.append(problems)
                print(f"[{wl.name}] output check failed: {problems}", file=sys.stderr)
            else:
                if quality_metrics is None:
                    quality_metrics = quality(out, wl.cfg)
                if traced:
                    with open(trace_path) as f:
                        child["layers"] = json.load(f)["metrics"]
                elif out_bytes is None:
                    out_bytes = artifact_bytes(out)
                runs["traced" if traced else "plain"].append(child)
            shutil.rmtree(out)
            done = [r["wall_s"] for r in runs["plain"] + runs["traced"]]
            next_s = statistics.median(done) if done else 0.0
            now = time.perf_counter()
            if trace:
                enough = len(runs["plain"]) >= 2 and len(runs["traced"]) >= 2
            else:
                enough = block_runs >= MIN_RUNS // blocks
            if now + next_s > deadline:
                break
            if enough and now - start + next_s > seconds / blocks:
                break
            if block_runs >= 3 * MIN_RUNS and not done:
                break
    return {
        "runs": runs,
        "setup_times": setup_times,
        "failures": failures,
        "quality": quality_metrics,
        "artifact_bytes": out_bytes,
    }


def end_to_end_metrics(m) -> dict:
    plain = m["runs"]["plain"]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(m["setup_times"]),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        **m["quality"],
    }


def per_layer_metrics(m, synth_layers) -> dict:
    plain, traced = m["runs"]["plain"], m["runs"]["traced"]
    values = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
        if not name.startswith("synth.")
    }
    values.update({k: v for k, v in synth_layers.items() if k.startswith("synth.")})
    untraced_wall = statistics.median(r["wall_s"] for r in plain)
    overhead = statistics.median(r["wall_s"] for r in traced) - untraced_wall
    values["pipeline.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
    values["pipeline.artifact_bytes"] = m["artifact_bytes"]
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / untraced_wall
    return values


# ---------------------------------------------------------------------------
# Machine and code facts
# ---------------------------------------------------------------------------


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def facts(wl: Workload) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    with open(wl.work / "data" / "synth_manifest.txt") as f:
        n_shots = json.load(f)["n_shots"]
    return {
        "workload": wl.name,
        "config": wl.cfg,
        "n_shots": n_shots,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {**blas, "threads": openblas_threads()},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_benchmark(args, work: Path) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    wl = Workload(args.workload, args.seed, work, smoke=args.smoke)
    m = measure(wl, args.seconds, args.trace, deadline)
    synth_layers = None
    if args.trace:
        trace_path = work / "trace-synth.json"
        wl.synth(deadline, "data-traced", trace_path)
        with open(trace_path) as f:
            synth_layers = json.load(f)["metrics"]
    if not m["runs"]["plain"] or (args.trace and not m["runs"]["traced"]):
        raise BenchError(f"no run passed the output check: {m['failures'][:2]}")
    if args.trace:
        values, units = per_layer_metrics(m, synth_layers), tracer.UNITS
    else:
        values, units = end_to_end_metrics(m), END_TO_END_UNITS
    samples = {
        "setup_s": m["setup_times"],
        **{f"{kind}_wall_s": [r["wall_s"] for r in rs] for kind, rs in m["runs"].items()},
    }
    print("facts " + json.dumps({**facts(wl), "samples": samples}, sort_keys=True))
    failed = len(m["failures"])
    return {
        "correct": failed == 0,
        "attempted": sum(map(len, m["runs"].values())) + failed,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # exit through the finally blocks below, which stop children and clean up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "shotfactor" / "__init__.py").is_file():
        print(f"error: no shotfactor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run_benchmark(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
