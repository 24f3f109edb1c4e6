"""Synthetic shot datasets with known bases, weights, and logits.

Ground truth for the recovery tests: bases are built from court-shaped
primitives (basket bump, corner bumps, distance bands), players mix them
with Dirichlet weights, and counts are drawn tile-by-tile from the implied
Poisson intensity.  All randomness flows through per-player derived streams
so generation is reproducible and order-independent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import backend
from .court import (
    CourtGrid,
    ShotTable,
    check_number,
    tile_indices,
    write_json,
    write_labeled_csv,
    write_shot_csv,
)

# Basket center in court coordinates: centered across the width, a few feet
# up from the baseline (which sits at y = 0).
BASKET_X = 17.5
BASKET_Y = 5.25

# Baseline make rates per archetype slot, as logits.
DEFAULT_BETA0 = (0.5, 0.0, -0.3, -0.15, 0.2, -0.4)


@dataclass
class SynthConfig:
    n_players: int = 60
    k_star: int = 4
    budget_range: tuple[int, int] = (100, 366)
    alpha: float = 1.0  # Dirichlet concentration for player weights
    sigma_star: float = 0.25  # spread of player logits around the global
    seed: int = 0
    grid: CourtGrid = field(default_factory=CourtGrid)

    def __post_init__(self):
        check_number("n_players", self.n_players, 1, integer=True)
        check_number("k_star", self.k_star, 1, integer=True)
        lo, hi = self.budget_range
        check_number("budget_range", lo, 1, integer=True)
        check_number("budget_range", hi, lo, integer=True)
        check_number("alpha", self.alpha, 0, strict=True)
        check_number("sigma_star", self.sigma_star, 0)
        check_number("seed", self.seed, 0, integer=True)


@dataclass(eq=False)
class PlantedTruth:
    bases: np.ndarray  # K* x V, unit volume rows
    weights: np.ndarray  # N x K*, rows sum to 1
    beta: np.ndarray  # N x K* logits
    beta0: np.ndarray  # length K*
    budgets: np.ndarray  # expected shots per player
    players: list[str]
    grid: CourtGrid


def _bump(cx, cy, centers, sd):
    d2 = (centers[:, 0] - cx) ** 2 + (centers[:, 1] - cy) ** 2
    return np.exp(-0.5 * d2 / sd**2)


def _band(radius, centers, sd):
    d = np.hypot(centers[:, 0] - BASKET_X, centers[:, 1] - BASKET_Y)
    return np.exp(-0.5 * ((d - radius) / sd) ** 2)


def make_planted_bases(grid: CourtGrid, k_star: int, seed: int) -> np.ndarray:
    """Unit-volume archetype surfaces, mutually near-disjoint.

    Slots, in order: basket bump, left and right corner bumps, an arc band
    at three-point range, a midrange band, and a deep band.  Centers and
    radii are jittered slightly per seed.  Pairwise cosine similarity must
    stay below 0.3; the primitives are spaced so it does, and the bound is
    enforced at generation time.
    """
    slots = 6
    check_number("k_star", k_star, 1, slots, integer=True)
    # stream tag 5: basis jitter stays disjoint from the other synth draws
    rng = np.random.default_rng([seed, 5])
    jit = rng.uniform(-0.5, 0.5, size=8)
    centers = grid.tile_centers()
    rows = [
        _bump(BASKET_X + jit[0], BASKET_Y + jit[1], centers, 2.8),
        _bump(3.0 + jit[2], 2.5 + 0.5 * jit[3], centers, 1.8),
        _bump(32.0 + jit[4], 2.5 + 0.5 * jit[5], centers, 1.8),
        _band(23.75 + jit[6], centers, 1.2),
        _band(12.0 + jit[7], centers, 1.5),
        _band(32.0, centers, 2.0),
    ][:k_star]
    bases = np.vstack(rows)
    if not bases.any(axis=1).all():
        raise RuntimeError("a primitive fell entirely outside the court")
    bases, _ = grid.unit_volume(bases)
    norms = np.linalg.norm(bases, axis=1)
    cosine = (bases @ bases.T) / np.outer(norms, norms)
    np.fill_diagonal(cosine, 0.0)
    if cosine.max() >= 0.3:
        raise RuntimeError(
            f"primitive overlap too high: max pairwise cosine {cosine.max():.3f}"
        )
    return bases


def sample_player_shots(
    weights_row: np.ndarray, bases: np.ndarray, budget: float, grid: CourtGrid, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one player's shot locations from the mixed intensity.

    The weights are normalized to sum 1, so the expected shot total is the
    budget.  Counts are Poisson per tile, with mean the intensity times the
    tile's area; locations are uniform over the tile.  Returns (x, y)
    arrays ordered by tile id.
    """
    weights_row = np.asarray(weights_row, dtype=np.float64)
    total = weights_row.sum()
    if total <= 0:
        raise ValueError("player weights must have positive sum")
    lam = budget * (weights_row / total) @ bases
    tx, ty = grid.tile_size
    counts = rng.poisson(lam * grid.tile_area)
    xs, ys = [np.empty(0)], [np.empty(0)]  # no shot: two empty arrays
    for v in np.nonzero(counts)[0].tolist():  # ints: numpy scalar math is slow here
        c = int(counts[v])
        xs.append(v % grid.nx * tx + rng.uniform(0.0, tx, size=c))
        ys.append(v // grid.nx * ty + rng.uniform(0.0, ty, size=c))
    return np.concatenate(xs), np.concatenate(ys)


def sample_outcomes(
    tiles: np.ndarray,
    weights_row: np.ndarray,
    bases: np.ndarray,
    beta_row: np.ndarray,
    rng,
) -> np.ndarray:
    """Draw a latent type per shot, then a Bernoulli outcome from its logit."""
    tiles = np.ascontiguousarray(tiles, dtype=np.int64)
    s = len(tiles)
    row = np.asarray(weights_row, dtype=np.float64)[None, :]
    table, totals = backend.type_weights(row, bases, np.zeros(s, int), tiles)
    types = backend.draw_type_indices(np.cumsum(table, axis=1), totals, rng.random(s))
    probs = backend.expit(np.asarray(beta_row, dtype=np.float64)[types])
    return (rng.random(s) < probs).astype(np.int64)


def _player_ids(n: int) -> list[str]:
    width = max(2, len(str(n - 1)))
    return [f"p{i:0{width}d}" for i in range(n)]


def make_planted_truth(config: SynthConfig) -> PlantedTruth:
    """Bases, mixing weights, budgets, and logits for one synthetic cohort."""
    grid = config.grid
    bases = make_planted_bases(grid, config.k_star, config.seed)
    # stream tag 6: weights, budgets, and logits
    rng = np.random.default_rng([config.seed, 6])
    weights = rng.dirichlet(
        np.full(config.k_star, config.alpha), size=config.n_players
    )
    lo, hi = config.budget_range
    budgets = rng.integers(lo, hi + 1, size=config.n_players).astype(np.float64)
    beta0 = np.array(DEFAULT_BETA0[: config.k_star])  # the bases allow k_star <= 6
    beta = beta0[None, :] + config.sigma_star * rng.standard_normal(
        (config.n_players, config.k_star)
    )
    return PlantedTruth(
        bases=bases,
        weights=weights,
        beta=beta,
        beta0=beta0,
        budgets=budgets,
        players=_player_ids(config.n_players),
        grid=grid,
    )


def generate_shots(truth: PlantedTruth, seed: int) -> ShotTable:
    """All players' shots with outcomes, via per-player derived streams."""
    xs, ys, made = [], [], []
    for n in range(len(truth.players)):
        # stream tag 7: one stream per player, independent of player order
        rng = np.random.default_rng([seed, 7, n])
        x, y = sample_player_shots(
            truth.weights[n], truth.bases, truth.budgets[n], truth.grid, rng
        )
        tiles = tile_indices(x, y, truth.grid)
        xs.append(x)
        ys.append(y)
        made.append(
            sample_outcomes(tiles, truth.weights[n], truth.bases, truth.beta[n], rng)
        )
    codes = np.repeat(np.arange(len(xs)), [len(x) for x in xs])  # the ids are sorted
    return ShotTable(truth.players, codes, *map(np.concatenate, (xs, ys, made)))


def generate_dataset(config: SynthConfig, shots_path) -> dict:
    """Write the shots to ``shots_path`` and the truth files and a manifest
    beside it; returns the paths."""
    out_dir = os.path.dirname(shots_path)
    os.makedirs(out_dir or ".", exist_ok=True)
    files = {
        "shots": shots_path,
        "truth_B": os.path.join(out_dir, "truth_B.csv"),
        "truth_W": os.path.join(out_dir, "truth_W.csv"),
        "truth_beta": os.path.join(out_dir, "truth_beta.csv"),
        "manifest": os.path.join(out_dir, "synth_manifest.txt"),
    }
    truth = make_planted_truth(config)
    shots = generate_shots(truth, config.seed)

    write_shot_csv(files["shots"], shots)
    basis_ids = [f"basis{i}" for i in range(config.k_star)]
    write_labeled_csv(files["truth_B"], basis_ids, truth.bases, truth.grid)
    write_labeled_csv(files["truth_W"], truth.players, truth.weights)
    write_labeled_csv(files["truth_beta"], truth.players, truth.beta)

    grid = config.grid
    manifest = {
        "n_players": config.n_players,
        "k_star": config.k_star,
        "budget_range": list(config.budget_range),
        "alpha": config.alpha,
        "sigma_star": config.sigma_star,
        "seed": config.seed,
        "grid": [grid.width, grid.length, *grid.tile_size],
        "beta0_star": truth.beta0.tolist(),
        "budgets": truth.budgets.tolist(),
        "n_shots": len(shots),
    }
    write_json(files["manifest"], manifest)
    return files
