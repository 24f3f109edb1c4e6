"""End-to-end orchestration: ingest, LGCP fits, factorization, efficiency,
evaluation, all persisted and resumable.

The stages form one table, ``STAGES``.  Every stage writes its outputs and
their checksums, keyed on the package source digest, its config views and
its input checksums.  A rerun skips a stage whose key is unchanged and whose
outputs are intact, so a code edit reruns every stage once; a corrupted
intermediate reruns its stage with a warning.  Nothing here consults the
clock, so a given (config, seed) pair always produces the same bytes.
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import functools
import hashlib
import json
import os
import pickle
import signal
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .court import (
    CourtGrid,
    build_count_matrix,
    check_number,
    open_text,
    read_count_csv,
    read_labeled_csv,
    read_shot_csv,
    read_tile_csv,
    split_holdout,
    tile_indices,
    write_count_csv,
    write_json,
    write_labeled_csv,
    write_shot_csv,
)
from .efficiency import (
    EfficiencyConfig,
    adjust_weights,
    efficiency_surface,
    fit_efficiency,
)
from .evaluate import EvalConfig, compare_surfaces
from .gp import KernelHyper, build_cov_factor
from .lgcp import LgcpConfig, fit_cohort
from .nmf import LOSSES, NmfConfig, fit_nmf
from .synth import SynthConfig


@dataclass
class PipelineConfig:
    """Flat bag of every knob the pipeline and its subcommands accept; each
    component knob defaults to its component config's own default."""

    width: float = CourtGrid.width
    length: float = CourtGrid.length
    tile_x: float = CourtGrid.tile_size[0]
    tile_y: float = CourtGrid.tile_size[1]
    variance: float = KernelHyper.variance
    length_scale: float = KernelHyper.length_scale
    lgcp_burn_in: int = LgcpConfig.burn_in
    lgcp_samples: int = LgcpConfig.n_samples
    lgcp_thinning: int = LgcpConfig.thinning
    k: int = 4
    k_list: tuple = (1, 2, 4, 6, 8, 12)
    loss: str = LOSSES[0]
    restarts: int = NmfConfig.restarts
    nmf_tol: float = NmfConfig.tol
    nmf_iters: int = NmfConfig.max_iters
    lvm_sweeps: int = EfficiencyConfig.sweeps
    lvm_burn_in: int = EfficiencyConfig.burn_in
    fraction: float = EvalConfig.fraction
    min_attempts: int = 50
    n_players: int = SynthConfig.n_players
    k_star: int = SynthConfig.k_star
    budget_min: int = SynthConfig.budget_range[0]
    budget_max: int = SynthConfig.budget_range[1]
    alpha: float = SynthConfig.alpha
    sigma_star: float = SynthConfig.sigma_star
    seed: int = 0
    shots: str = "shots.csv"
    out: str = "artifacts"

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        check_number("seed", self.seed, 0, integer=True)
        ks = self.k_list
        try:
            if not isinstance(ks, (list, tuple)) or not ks:
                raise ValueError("not a non-empty list")
            for k in ks:
                check_number("k", k, 1, integer=True)
            if len(set(ks)) != len(ks):
                raise ValueError("a repeated value")
        except ValueError as exc:
            message = f"k_list must be a list of integers >= 1, no repeats, got {ks!r}"
            raise ValueError(message) from exc
        self.k_list = tuple(ks)
        for key in ("shots", "out"):
            if not isinstance(getattr(self, key), str):
                raise ValueError(f"{key} must be a string, got {getattr(self, key)!r}")

    # Component-config views; each constructor revalidates its block.
    def grid(self) -> CourtGrid:
        return CourtGrid(self.width, self.length, (self.tile_x, self.tile_y))

    def lgcp_config(self) -> LgcpConfig:
        return LgcpConfig(
            hyper=KernelHyper(self.variance, self.length_scale),
            burn_in=self.lgcp_burn_in,
            n_samples=self.lgcp_samples,
            thinning=self.lgcp_thinning,
            seed=self.seed,
        )

    def nmf_config(self) -> NmfConfig:
        return NmfConfig(
            max_iters=self.nmf_iters,
            tol=self.nmf_tol,
            restarts=self.restarts,
            seed=self.seed,
        )

    def efficiency_config(self) -> EfficiencyConfig:
        return EfficiencyConfig(
            sweeps=self.lvm_sweeps, burn_in=self.lvm_burn_in, seed=self.seed
        )

    def eval_config(self) -> EvalConfig:
        return EvalConfig(fraction=self.fraction, nmf=self.nmf_config())

    def synth_config(self) -> SynthConfig:
        return SynthConfig(
            n_players=self.n_players,
            k_star=self.k_star,
            budget_range=(self.budget_min, self.budget_max),
            alpha=self.alpha,
            sigma_star=self.sigma_star,
            seed=self.seed,
            grid=self.grid(),
        )


def parse_config_file(path) -> dict:
    """Read `key = value` lines; values are JSON fragments or bare strings.
    A key given twice raises ValueError naming both lines."""
    mapping: dict = {}
    set_on: dict = {}  # key -> line that set it
    with open_text(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = key.strip(), value.strip()
            if key in set_on:
                raise ValueError(
                    f"{path}:{lineno}: key {key!r} already set on line {set_on[key]}"
                )
            set_on[key] = lineno
            try:
                mapping[key] = json.loads(value)
            except json.JSONDecodeError:
                mapping[key] = value
    return mapping


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    mapping = parse_config_file(path) if path else {}
    mapping.update(overrides or {})
    unknown = set(mapping) - {f.name for f in dataclasses.fields(PipelineConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return PipelineConfig(**mapping)


# ---------------------------------------------------------------------------
# Stage runner with checksummed, resumable outputs
# ---------------------------------------------------------------------------


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@functools.cache
def _source_digest() -> str:
    """SHA-256 over the SHA-256 of each ``*.py`` file of the package, by name."""
    here = os.path.dirname(os.path.abspath(__file__))
    names = sorted(n for n in os.listdir(here) if n.endswith(".py"))
    parts = [f"{n}={_sha256(os.path.join(here, n))}" for n in names]
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


class StageRunner:
    """Runs named stages, skipping one whose outputs are intact and whose
    key is the one it last ran with.  ``key`` sets a stage's key before
    ``run`` runs it."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.state_path = os.path.join(out_dir, "pipeline_state.txt")
        self.keys = {}  # stage name -> key in this run
        self.sums = {}  # path -> SHA-256, each file read at most once a run
        try:
            with open_text(self.state_path) as f:
                old = dict(json.load(f))
        except (OSError, ValueError, TypeError):
            old = {}
        # A state without "stages" (one key per run) reruns every stage once;
        # one that is not a JSON object, or whose fields are not
        # string-to-string objects, counts as none.
        self.state = {
            "artifacts": old.get("artifacts", {}),
            "stages": old.get("stages", {}),
        }
        if not all(
            isinstance(field, dict) and all(isinstance(v, str) for v in field.values())
            for field in self.state.values()
        ):
            self.state = {"artifacts": {}, "stages": {}}

    def checksum(self, path) -> str:
        """SHA-256 of ``path``, or "absent" when there is no such file."""
        if path not in self.sums:
            self.sums[path] = _sha256(path) if os.path.exists(path) else "absent"
        return self.sums[path]

    def key(self, name: str, views: list, inputs: dict) -> None:
        """Key stage ``name`` on the package source digest, the repr of its
        config views and the checksum of each input file (input name -> path)."""
        parts = [_source_digest(), repr(views)]
        parts += [f"{n}={self.checksum(p)}" for n, p in inputs.items()]
        self.keys[name] = hashlib.sha256("\0".join(parts).encode()).hexdigest()

    def run(self, name: str, outputs: list, fn):
        key = self.keys[name]
        recorded = self.state["artifacts"]
        rel = [os.path.relpath(p, self.out_dir) for p in outputs]
        last_key = self.state["stages"].get(name)
        if last_key is None or any(r not in recorded for r in rel):
            reason = "no record"
        elif last_key != key:
            reason = "key changed"
        elif not all(os.path.exists(p) for p in outputs):
            reason = "output missing"
        else:
            stale = [
                r for r, p in zip(rel, outputs) if self.checksum(p) != recorded[r]
            ]
            if not stale:
                print(f"[{name}] up to date, skipping")
                return
            print(f"[{name}] checksum mismatch on {', '.join(stale)}; re-running")
            reason = "checksum mismatch"
        fn()
        for r, p in zip(rel, outputs):
            self.sums[p] = recorded[r] = _sha256(p)
        self.state["stages"][name] = key
        write_json(self.state_path, self.state)
        print(f"[{name}] done ({reason})")


# ---------------------------------------------------------------------------
# Stage bodies, each called as body(input paths, output paths, *views)
# ---------------------------------------------------------------------------


def fan_out(fn, items) -> list:
    """``[fn(x) for x in items]`` on every CPU in the affinity mask: n - 1
    forked workers compute items j, j + n, ... (0 < j < n) and this process
    items 0, n, ....  A worker's exception is raised here; one that dies
    without replying raises RuntimeError naming its exit status.  Every
    worker is reaped, and first killed if this process's share raised.
    Forking is safe: a stage runs one thread, and OpenBLAS parks its pool."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else [0]
    n = max(1, min(len(cpus), len(items)))
    parent, workers = os.getpid(), {}  # pid -> read end of its pipe, unreaped
    try:
        for j in range(1, n):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                _work(parent, fn, items[j::n], write)
            os.close(write)
            workers[pid] = os.fdopen(read, "rb")
        shares = [[fn(x) for x in items[::n]]]
        for pid in list(workers):
            reply = workers[pid].read()  # to EOF: the worker replied or died
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(pid).close()
            if code or not reply:
                raise RuntimeError(f"a fan_out worker exited with status {code}")
            shares.append(pickle.loads(reply))
            if not isinstance(shares[-1], list):
                raise shares[-1]
    finally:
        for pid, pipe in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [shares[i % n][i // n] for i in range(len(items))]


def _work(parent: int, fn, share, write: int):
    """A fan_out worker: it dies with ``parent``, replies and ends at once."""
    try:
        ctypes.CDLL(None).prctl(1, ctypes.c_ulong(signal.SIGKILL))  # PR_SET_PDEATHSIG
        if os.getppid() == parent:  # else it died before the request
            try:
                reply = [fn(x) for x in share]
            except Exception as exc:
                reply = exc
            with os.fdopen(write, "wb") as pipe:
                pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)
            os._exit(0)
    finally:
        os._exit(1)


def stage_ingest(inputs, outputs, grid: CourtGrid, fraction, min_attempts, seed):
    """Split the shots into train and test, and count each split per tile."""
    (shots_path,) = inputs
    shots_train, shots_test, counts_train, counts_test = outputs
    shots = read_shot_csv(shots_path, grid)
    train, test = split_holdout(shots, fraction, seed)
    cm_train = build_count_matrix(train, grid, min_attempts=min_attempts)
    cm_test = build_count_matrix(test, grid, players=cm_train.players)
    write_shot_csv(shots_train, train.take(train.player_rows(cm_train.players) >= 0))
    write_shot_csv(shots_test, test.take(test.player_rows(cm_train.players) >= 0))
    write_count_csv(counts_train, cm_train)
    write_count_csv(counts_test, cm_test)


def stage_lgcp(inputs, outputs, lgcp: LgcpConfig):
    """Fit per-player intensity surfaces and persist them with a sidecar."""
    (counts_path,) = inputs
    surfaces_path, meta_path = outputs
    cm = read_count_csv(counts_path)
    factor = build_cov_factor(cm.grid, lgcp.hyper)
    surfaces, volumes = fit_cohort(cm.counts, factor, cm.grid, lgcp, fan_out)
    write_labeled_csv(surfaces_path, cm.players, surfaces, cm.grid)
    meta = {
        "kernel": [lgcp.hyper.variance, lgcp.hyper.length_scale],
        "chain": [lgcp.burn_in, lgcp.n_samples, lgcp.thinning],
        "seed": lgcp.seed,
        "volumes": dict(zip(cm.players, volumes.tolist())),
    }
    write_json(meta_path, meta)


def stage_factorize(inputs, outputs, k, loss, nmf: NmfConfig):
    """Factorize the surfaces; the bases B keep the surfaces' grid header."""
    (surfaces_path,) = inputs
    w_path, b_path, manifest_path = outputs
    players, matrix, grid = read_tile_csv(surfaces_path)
    model = fit_nmf(matrix, k, loss, nmf)
    write_labeled_csv(w_path, players, model.weights)
    write_labeled_csv(b_path, [f"basis{i}" for i in range(model.k)], model.bases, grid)
    manifest = {
        "loss": loss,
        "k": model.k,
        "final_loss": model.final_loss,
        "iterations": model.n_iters,
        "seed": nmf.seed,
    }
    write_json(manifest_path, manifest)


def stage_efficiency(inputs, outputs, efficiency: EfficiencyConfig):
    """Fit the outcome model on the factors and training shots, on B's court."""
    w_path, b_path, shots_path = inputs
    beta_path, global_path, surfaces_path = outputs
    players, weights, _ = read_labeled_csv(w_path)
    _, bases, grid = read_tile_csv(b_path)
    loadings = adjust_weights(weights, bases)
    shots = read_shot_csv(shots_path, grid)
    idx = shots.player_rows(players)
    if np.any(idx < 0):
        missing = sorted(set(shots.players[idx < 0].tolist()))
        raise ValueError(f"shots reference players without loadings: {missing[:5]}")
    tiles = tile_indices(shots.x, shots.y, grid)
    model = fit_efficiency(idx, tiles, shots.made, loadings, efficiency).model
    write_labeled_csv(beta_path, players, model.beta)
    global_rows = np.vstack([model.beta0, model.sigma2])
    write_labeled_csv(global_path, ["beta0", "sigma2"], global_rows)
    rows = efficiency_surface(loadings, model)
    write_labeled_csv(surfaces_path, ["global"] + list(players), rows, grid)


def stage_evaluate(inputs, outputs, k_list, evaluation: EvalConfig):
    """Score every model on the held-out counts (see ``compare_surfaces``),
    then write the summary CSV, the per-player CSV it names, and a
    plain-text table."""
    train_path, test_path, surfaces_path, meta_path, truth_path = inputs
    summary_path, per_player_path, text_path = outputs
    cm_train = read_count_csv(train_path)
    cm_test = read_count_csv(test_path)
    players, surfaces, _ = read_tile_csv(surfaces_path, cm_train.grid)
    with open_text(meta_path) as f:
        volumes_map = json.load(f)["volumes"]
    volumes = np.array([volumes_map[player] for player in players])
    truth = None
    if os.path.exists(truth_path):
        _, truth, _ = read_tile_csv(truth_path, cm_train.grid)
    report = compare_surfaces(
        cm_train, cm_test, surfaces, volumes, list(k_list), evaluation, truth, fan_out
    )

    with open_text(per_player_path, "w") as f:
        writer = csv.writer(f)
        writer.writerow(["model", "k", "player", "loglik"])
        for e in report.entries:
            for player, value in zip(report.players, e.per_player):
                writer.writerow([e.model, e.k, player, repr(float(value))])

    name = os.path.basename(per_player_path)
    with open_text(summary_path, "w") as f:
        writer = csv.writer(f)
        writer.writerow(["model", "k", "mean", "stderr", "per_player_file"])
        for e in report.entries:
            writer.writerow([e.model, e.k, repr(e.mean), repr(e.stderr), name])

    with open_text(text_path, "w") as f:
        f.write(
            f"held-out log-likelihood (fraction={evaluation.fraction}, "
            f"seed={evaluation.nmf.seed}, {len(report.players)} players)\n"
        )
        f.write(f"{'model':<14}{'K':>4}{'mean':>14}{'stderr':>12}\n")
        for e in report.entries:
            f.write(f"{e.model:<14}{e.k:>4}{e.mean:>14.4f}{e.stderr:>12.4f}\n")
        if report.recovery:
            f.write("\nbasis recovery (mean matched cosine)\n")
            for (model, k), scorer in sorted(report.recovery.items()):
                f.write(f"{model:<14}{k:>4}{scorer.mean:>14.4f}\n")


# ---------------------------------------------------------------------------
# The stage table and the pipeline itself
# ---------------------------------------------------------------------------

# Input names of the two data files outside the artifact directory: the
# shot CSV, and the planted bases that synth writes beside it (absent for
# real data, where evaluate scores no basis recovery).
SHOTS = "shots"
TRUTH = "truth"


@dataclass(frozen=True)
class Stage:
    """One stage: its exit code, the files it reads and writes (artifact
    names, formatted with the config fields, or ``SHOTS``/``TRUTH``), the
    function from the config to the values its body receives after the
    paths, and the body."""

    name: str
    code: int
    inputs: tuple
    outputs: tuple
    views: Callable[[PipelineConfig], list]
    body: Callable


class StageError(RuntimeError):
    def __init__(self, stage: Stage, cause: BaseException):
        self.code = stage.code
        super().__init__(f"stage '{stage.name}' failed (code {stage.code}): {cause}")


# The weights and bases that factorize writes and efficiency reads
FACTORS = ("factors_{loss}_k{k}_W.csv", "factors_{loss}_k{k}_B.csv")

# Each stage's exit code is fixed, for scripted callers.
STAGES = (
    Stage(
        "ingest",
        10,
        (SHOTS,),
        ("shots_train.csv", "shots_test.csv", "counts_train.csv", "counts_test.csv"),
        lambda c: [c.grid(), c.fraction, c.min_attempts, c.seed],
        stage_ingest,
    ),
    Stage(
        "lgcp",
        11,
        ("counts_train.csv",),
        ("surfaces.csv", "surfaces_meta.txt"),
        lambda c: [c.lgcp_config()],
        stage_lgcp,
    ),
    Stage(
        "factorize",
        12,
        ("surfaces.csv",),
        FACTORS + ("factors_{loss}_k{k}_manifest.txt",),
        lambda c: [c.k, c.loss, c.nmf_config()],
        stage_factorize,
    ),
    Stage(
        "efficiency",
        13,
        FACTORS + ("shots_train.csv",),
        ("efficiency_beta.csv", "efficiency_global.csv", "efficiency_surfaces.csv"),
        lambda c: [c.efficiency_config()],
        stage_efficiency,
    ),
    Stage(
        "evaluate",
        14,
        ("counts_train.csv", "counts_test.csv", "surfaces.csv", "surfaces_meta.txt")
        + (TRUTH,),
        ("eval_report.csv", "eval_per_player.csv", "eval_report.txt"),
        lambda c: [c.k_list, c.eval_config()],
        stage_evaluate,
    ),
)


def stage_plan(target: str | None = None) -> list:
    """Every stage in table order, or only ``target`` and the stages whose
    outputs it reads directly or indirectly."""
    if target is None:
        return list(STAGES)
    if target not in [st.name for st in STAGES]:
        raise ValueError(f"unknown stage {target!r}")
    wanted, plan = set(), []
    for stage in reversed(STAGES):
        if stage.name == target or wanted.intersection(stage.outputs):
            plan.insert(0, stage)
            wanted.update(stage.inputs)
    return plan


def run_pipeline(config: PipelineConfig, out_dir, stage: str | None = None) -> list:
    """Run the stages of ``stage_plan(stage)`` in ``out_dir``, then record
    the config, less its ``out``, in ``pipeline_manifest.txt``; returns the
    output paths of the last stage.  A failure inside a stage, its views
    included, raises ``StageError`` with that stage's code, and a config
    value JSON cannot hold (NaN, infinity) raises ValueError; both leave
    the manifest as it was."""
    os.makedirs(out_dir, exist_ok=True)
    if not os.path.exists(config.shots):
        raise FileNotFoundError(f"shot CSV not found: {config.shots}")
    data = {
        SHOTS: config.shots,
        TRUTH: os.path.join(os.path.dirname(config.shots), "truth_B.csv"),
    }

    def path(name):
        return data.get(name) or os.path.join(out_dir, name.format(**vars(config)))

    runner = StageRunner(out_dir)
    for st in stage_plan(stage):
        inputs = {name.format(**vars(config)): path(name) for name in st.inputs}
        outputs = [path(name) for name in st.outputs]
        try:
            views = st.views(config)
            runner.key(st.name, views, inputs)
            body = functools.partial(st.body, list(inputs.values()), outputs, *views)
            runner.run(st.name, outputs, body)
        except Exception as exc:
            raise StageError(st, exc) from exc
    recorded = {k: v for k, v in dataclasses.asdict(config).items() if k != "out"}
    for key, value in recorded.items():
        try:
            json.dumps(value, allow_nan=False)
        except ValueError:
            raise ValueError(f"{key} must be a finite number, got {value!r}") from None
    write_json(os.path.join(out_dir, "pipeline_manifest.txt"), recorded)
    return outputs
