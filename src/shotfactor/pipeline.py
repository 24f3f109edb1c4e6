"""End-to-end orchestration: ingest, LGCP fits, factorization, efficiency,
evaluation, all persisted and resumable.

Every stage writes its outputs to the artifact directory and records their
checksums.  A rerun with the same config, input files and package version
skips stages whose outputs are intact; a corrupted intermediate triggers a
warning and a re-run of its stage.  Nothing here consults the clock, so a
given (config, seed) pair always produces the same bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .court import (
    CourtGrid,
    build_count_matrix,
    read_count_csv,
    read_labeled_csv,
    read_shot_csv,
    split_holdout,
    tile_indices,
    write_count_csv,
    write_labeled_csv,
    write_shot_csv,
)
from .efficiency import (
    EfficiencyConfig,
    adjust_weights,
    efficiency_surface,
    fit_efficiency,
    write_efficiency_csv,
)
from .evaluate import EvalConfig, compare_surfaces, write_eval_report
from .gp import KernelHyper, build_cov_factor
from .lgcp import LgcpConfig, fit_cohort
from .nmf import NmfConfig, fit_nmf, read_factor_model, write_factor_model
from .synth import SynthConfig

LOSSES = ("kl", "frobenius")

# Fixed exit codes, one per stage, for scripted callers.
STAGE_CODES = {
    "ingest": 10,
    "lgcp": 11,
    "factorize": 12,
    "efficiency": 13,
    "evaluate": 14,
}


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.code = STAGE_CODES.get(stage, 1)
        self.cause = cause
        super().__init__(f"stage '{stage}' failed (code {self.code}): {cause}")


@dataclass
class PipelineConfig:
    """Flat bag of every knob the pipeline and its subcommands accept."""

    width: float = 35.0
    length: float = 50.0
    tile_x: float = 2.5
    tile_y: float = 2.0
    variance: float = 1.0
    length_scale: float = 4.0
    lgcp_burn_in: int = 500
    lgcp_samples: int = 500
    lgcp_thinning: int = 2
    k: int = 4
    k_list: tuple = (1, 2, 4, 6, 8, 12)
    loss: str = "kl"
    restarts: int = 5
    nmf_tol: float = 1e-6
    nmf_iters: int = 2000
    lvm_sweeps: int = 2000
    lvm_burn_in: int = 500
    fraction: float = 0.1
    min_attempts: int = 50
    n_players: int = 60
    k_star: int = 4
    budget_min: int = 100
    budget_max: int = 366
    alpha: float = 1.0
    sigma_star: float = 0.25
    seed: int = 0
    shots: str = "shots.csv"
    out: str = "artifacts"

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")
        self.k_list = tuple(int(k) for k in self.k_list)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "PipelineConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(mapping) - names
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**mapping)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["k_list"] = list(self.k_list)
        return d

    # Component-config views; each constructor revalidates its block.
    def grid(self) -> CourtGrid:
        return CourtGrid(self.width, self.length, (self.tile_x, self.tile_y))

    def hyper(self) -> KernelHyper:
        return KernelHyper(self.variance, self.length_scale)

    def lgcp_config(self) -> LgcpConfig:
        return LgcpConfig(
            hyper=self.hyper(),
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
        return EvalConfig(
            fraction=self.fraction,
            min_attempts=self.min_attempts,
            seed=self.seed,
            hyper=self.hyper(),
            lgcp=self.lgcp_config(),
            nmf=self.nmf_config(),
        )

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
    """Read `key = value` lines; values are JSON fragments or bare strings."""
    mapping: dict = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = key.strip(), value.strip()
            try:
                mapping[key] = json.loads(value)
            except json.JSONDecodeError:
                mapping[key] = value
    return mapping


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    mapping = parse_config_file(path) if path else {}
    mapping.update(overrides or {})
    return PipelineConfig.from_mapping(mapping)


# ---------------------------------------------------------------------------
# Stage runner with checksummed, resumable outputs
# ---------------------------------------------------------------------------


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class StageRunner:
    """Runs named stages, skipping ones whose outputs are intact under the
    same key: config text, package version and each input file's content
    (or absence).  A changed key reruns every stage."""

    def __init__(self, out_dir, config_text: str, inputs, log=print):
        self.out_dir = out_dir
        self.state_path = os.path.join(out_dir, "pipeline_state.txt")
        self.log = log
        key = [config_text, __version__]
        key += [_sha256(p) if os.path.exists(p) else "absent" for p in inputs]
        self.key_sha = hashlib.sha256("\0".join(key).encode()).hexdigest()
        self.state = {"key_sha": self.key_sha, "artifacts": {}}
        if os.path.exists(self.state_path):
            try:
                with open(self.state_path) as f:
                    old = json.load(f)
            except (OSError, json.JSONDecodeError):
                old = None
            if old and old.get("key_sha") == self.key_sha:
                self.state = old

    def _save(self):
        with open(self.state_path, "w") as f:
            json.dump(self.state, f, indent=2, sort_keys=True)
            f.write("\n")

    def run(self, name: str, outputs: list, fn):
        recorded = self.state["artifacts"]
        rel = [os.path.relpath(p, self.out_dir) for p in outputs]
        if all(r in recorded and os.path.exists(p) for r, p in zip(rel, outputs)):
            stale = [
                r for r, p in zip(rel, outputs) if _sha256(p) != recorded[r]
            ]
            if not stale:
                self.log(f"[{name}] up to date, skipping")
                return
            self.log(
                f"[{name}] checksum mismatch on {', '.join(stale)}; re-running"
            )
        try:
            fn()
        except Exception as exc:
            raise StageError(name, exc) from exc
        for r, p in zip(rel, outputs):
            recorded[r] = _sha256(p)
        self._save()
        self.log(f"[{name}] done")


# ---------------------------------------------------------------------------
# Stage bodies shared with the standalone subcommands
# ---------------------------------------------------------------------------


def fit_surfaces_artifact(cm, config: PipelineConfig, surf_path, meta_path) -> None:
    """Fit per-player intensity surfaces and persist them with a sidecar."""
    grid = cm.grid
    factor = build_cov_factor(grid, config.hyper())
    surfaces, volumes = fit_cohort(cm.counts, factor, grid, config.lgcp_config())
    write_labeled_csv(surf_path, cm.players, surfaces, grid)
    with open(meta_path, "w") as f:
        json.dump(
            {
                "kernel": [config.variance, config.length_scale],
                "chain": [
                    config.lgcp_burn_in,
                    config.lgcp_samples,
                    config.lgcp_thinning,
                ],
                "seed": config.seed,
                "volumes": {
                    player: vol for player, vol in zip(cm.players, volumes.tolist())
                },
            },
            f,
            indent=2,
            sort_keys=True,
        )
        f.write("\n")


def efficiency_artifacts(
    factors_prefix,
    shots_path,
    grid: CourtGrid,
    config: PipelineConfig,
    out_prefix,
    surfaces_path,
) -> None:
    """Fit the outcome model on persisted factors and shots, and persist it."""
    model, players = read_factor_model(factors_prefix)
    loadings = adjust_weights(model)
    shots = read_shot_csv(shots_path, grid)
    row = {player: i for i, player in enumerate(players)}
    missing = sorted({s.player for s in shots} - set(players))
    if missing:
        raise ValueError(f"shots reference players without loadings: {missing[:5]}")
    idx = np.array([row[s.player] for s in shots], dtype=np.int64)
    tiles = tile_indices(
        np.array([s.x for s in shots]), np.array([s.y for s in shots]), grid
    )
    made = np.array([s.made for s in shots], dtype=np.int64)
    fit = fit_efficiency(idx, tiles, made, loadings, config.efficiency_config())
    write_efficiency_csv(out_prefix, fit.model, players)
    ids = ["global"] + list(players)
    rows = np.vstack(
        [efficiency_surface(loadings, fit.model)]
        + [efficiency_surface(loadings, fit.model, i) for i in range(len(players))]
    )
    write_labeled_csv(surfaces_path, ids, rows, grid)


# ---------------------------------------------------------------------------
# The pipeline itself
# ---------------------------------------------------------------------------


def write_manifest(out_dir, config: PipelineConfig) -> str:
    path = os.path.join(out_dir, "pipeline_manifest.txt")
    with open(path, "w") as f:
        json.dump(config.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def run_pipeline(config: PipelineConfig, out_dir=None, log=print) -> dict:
    """Run every stage; returns a dict of artifact paths."""
    out_dir = out_dir or config.out
    os.makedirs(out_dir, exist_ok=True)
    if not os.path.exists(config.shots):
        raise FileNotFoundError(f"shot CSV not found: {config.shots}")
    manifest = write_manifest(out_dir, config)
    truth_path = os.path.join(os.path.dirname(config.shots), "truth_B.csv")
    with open(manifest) as f:
        runner = StageRunner(out_dir, f.read(), [config.shots, truth_path], log=log)
    grid = config.grid()

    def p(name):
        return os.path.join(out_dir, name)

    paths = {
        "manifest": manifest,
        "shots_train": p("shots_train.csv"),
        "shots_test": p("shots_test.csv"),
        "counts_train": p("counts_train.csv"),
        "counts_test": p("counts_test.csv"),
        "surfaces": p("surfaces.csv"),
        "surfaces_meta": p("surfaces_meta.txt"),
        "factors": p(f"factors_{config.loss}_k{config.k}"),
        "efficiency": p("efficiency"),
        "efficiency_surfaces": p("efficiency_surfaces.csv"),
    }

    def stage_ingest():
        shots = read_shot_csv(config.shots, grid)
        train, test = split_holdout(shots, config.fraction, config.seed)
        cm_train = build_count_matrix(train, grid, min_attempts=config.min_attempts)
        cm_test = build_count_matrix(test, grid, 0, players=cm_train.players)
        keep = set(cm_train.players)
        write_shot_csv(paths["shots_train"], [s for s in train if s.player in keep])
        write_shot_csv(paths["shots_test"], [s for s in test if s.player in keep])
        write_count_csv(paths["counts_train"], cm_train)
        write_count_csv(paths["counts_test"], cm_test)

    runner.run(
        "ingest",
        [
            paths["shots_train"],
            paths["shots_test"],
            paths["counts_train"],
            paths["counts_test"],
        ],
        stage_ingest,
    )

    def stage_lgcp():
        cm = read_count_csv(paths["counts_train"])
        fit_surfaces_artifact(cm, config, paths["surfaces"], paths["surfaces_meta"])

    runner.run("lgcp", [paths["surfaces"], paths["surfaces_meta"]], stage_lgcp)

    factor_files = [
        f"{paths['factors']}_W.csv",
        f"{paths['factors']}_B.csv",
        f"{paths['factors']}_manifest.txt",
    ]

    def stage_factorize():
        players, matrix, _ = read_labeled_csv(paths["surfaces"])
        model = fit_nmf(matrix, config.k, loss=config.loss, config=config.nmf_config())
        write_factor_model(paths["factors"], model, players)

    runner.run("factorize", factor_files, stage_factorize)

    efficiency_files = [
        f"{paths['efficiency']}_beta.csv",
        f"{paths['efficiency']}_global.csv",
        paths["efficiency_surfaces"],
    ]

    def stage_efficiency():
        efficiency_artifacts(
            paths["factors"],
            paths["shots_train"],
            grid,
            config,
            paths["efficiency"],
            paths["efficiency_surfaces"],
        )

    runner.run("efficiency", efficiency_files, stage_efficiency)

    eval_files = [
        p("eval_report.csv"),
        p("eval_per_player.csv"),
        p("eval_report.txt"),
    ]

    def stage_evaluate():
        cm_train = read_count_csv(paths["counts_train"])
        cm_test = read_count_csv(paths["counts_test"])
        players, surfaces, _ = read_labeled_csv(paths["surfaces"])
        with open(paths["surfaces_meta"]) as f:
            volumes_map = json.load(f)["volumes"]
        volumes = np.array([volumes_map[player] for player in players])
        truth_bases = None
        if os.path.exists(truth_path):
            _, truth_bases, _ = read_labeled_csv(truth_path)
        report = compare_surfaces(
            cm_train,
            cm_test,
            surfaces,
            volumes,
            list(config.k_list),
            config.eval_config(),
            truth_bases,
        )
        write_eval_report(out_dir, report)

    runner.run("evaluate", eval_files, stage_evaluate)

    paths.update(
        {
            "eval_report": eval_files[0],
            "eval_per_player": eval_files[1],
            "eval_text": eval_files[2],
        }
    )
    return paths
