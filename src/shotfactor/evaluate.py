"""Held-out comparison of intensity models, plus recovery diagnostics.

Every model is reduced to the same contract before scoring: a unit-volume
surface per player and a train-mass volume.  The held-out likelihood scales
that surface to the expected test mass, so models with different internals
(MCMC surfaces, factorized reconstructions, mixed-sign PCA) compete under
identical terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backend import log_factorial
from .court import CountMatrix, check_number
from .nmf import COUNT_JITTER, NmfConfig, fit_nmf, fit_pca, pca_reconstruct

EPS = 1e-12

MODEL_NAMES = ("lgcp", "nmf_kl", "nmf_frobenius", "nmf_counts", "pca")

# The loss of each NMF model fitted to the LGCP surfaces
SURFACE_LOSSES = {"nmf_kl": "kl", "nmf_frobenius": "frobenius"}


@dataclass
class EvalConfig:
    fraction: float = 0.1
    nmf: NmfConfig = field(default_factory=NmfConfig)
    models: tuple = MODEL_NAMES

    def __post_init__(self):
        check_number("fraction", self.fraction, 0, 1, strict=True)
        unknown = set(self.models) - set(MODEL_NAMES)
        if unknown:
            raise ValueError(f"unknown models: {sorted(unknown)}")


@dataclass(eq=False)
class EvalEntry:
    model: str
    k: int
    per_player: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.per_player.mean())

    @property
    def stderr(self) -> float:
        n = len(self.per_player)
        if n < 2:
            return 0.0
        return float(self.per_player.std(ddof=1) / np.sqrt(n))


@dataclass(eq=False)
class RecoveryScore:
    """Greedy best-cosine matching of estimated bases to true ones."""

    pairs: list  # (estimated index, true index)
    similarities: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.similarities.mean())


@dataclass(eq=False)
class EvalReport:
    entries: list
    players: list
    recovery: dict = field(default_factory=dict)

    def entry(self, model: str, k: int) -> EvalEntry:
        for e in self.entries:
            if e.model == model and e.k == k:
                return e
        raise KeyError(f"no entry for ({model}, {k})")


def heldout_loglik(
    test_counts: np.ndarray,
    unit_rows: np.ndarray,
    train_volumes: np.ndarray,
    fraction: float,
    area: float,
) -> np.ndarray:
    """Per-player Poisson log-likelihood of test counts (N x V) under
    rescaled unit-volume surfaces (N x V).

    Each row is scaled to its expected test mass, train volume * f/(1-f),
    and floored at a tiny rate so empty tiles cannot produce infinities;
    each tile contributes c*log(area*rate) - area*rate - log(c!).
    """
    check_number("fraction", fraction, 0, 1, strict=True)
    counts = np.asarray(test_counts, dtype=np.float64)
    scale = np.asarray(train_volumes, dtype=np.float64) * fraction / (1.0 - fraction)
    lam = area * np.maximum(unit_rows * scale[:, None], EPS)
    return np.sum(counts * np.log(lam) - lam - log_factorial(counts), axis=1)


def basis_recovery_score(b_hat: np.ndarray, b_star: np.ndarray) -> RecoveryScore:
    """Match each true basis to its best remaining estimate by cosine."""
    b_hat = np.asarray(b_hat, dtype=np.float64)
    b_star = np.asarray(b_star, dtype=np.float64)
    if b_hat.shape[1] != b_star.shape[1]:
        raise ValueError("basis matrices disagree on V")
    if b_hat.shape[0] < b_star.shape[0]:
        raise ValueError("need at least as many estimated bases as true ones")
    hn = np.linalg.norm(b_hat, axis=1)
    sn = np.linalg.norm(b_star, axis=1)
    cosine = (b_hat @ b_star.T) / np.outer(np.maximum(hn, EPS), np.maximum(sn, EPS))
    # np.argmax takes the first maximum in row-major order: ties go to the
    # lowest estimated index, then to the lowest true one.
    pairs, sims = [], []
    for _ in range(b_star.shape[0]):
        i, j = np.unravel_index(np.argmax(cosine), cosine.shape)
        pairs.append((int(i), int(j)))
        sims.append(cosine[i, j])
        cosine[i, :] = -np.inf
        cosine[:, j] = -np.inf
    return RecoveryScore(pairs=pairs, similarities=np.array(sims))


def compare_surfaces(
    cm_train: CountMatrix,
    cm_test: CountMatrix,
    unit_surfaces: np.ndarray,
    volumes: np.ndarray,
    k_list: list[int],
    config: EvalConfig,
    truth_bases: np.ndarray | None = None,
) -> EvalReport:
    """Score every requested model at every rank in ``k_list``: each reduces
    to unit rows, volumes and its fitted bases (None for ``lgcp`` and
    ``pca``), which are matched against the truth at K >= K*."""
    grid = cm_train.grid
    players = cm_train.players
    area = grid.tile_area
    k_star = np.inf if truth_bases is None else truth_bases.shape[0]
    if "pca" in config.models and len(players) < 2:
        n = len(players)
        raise ValueError(f"the pca baseline needs at least 2 players, got {n}")

    def unit_rows(matrix):  # clamped: an empty or negative tile still scores
        return grid.unit_volume(np.maximum(matrix, EPS))

    def reduce(model: str, k: int):
        if model == "lgcp":
            return unit_surfaces, volumes, None
        if model == "pca":
            k_pca = min(k, len(players) - 1, grid.n_tiles)
            rows, _ = unit_rows(pca_reconstruct(fit_pca(unit_surfaces, k_pca)))
            return rows, volumes, None
        if model == "nmf_counts":
            fit = fit_nmf(cm_train.counts + COUNT_JITTER, k, "kl", config.nmf)
            return *unit_rows((fit.weights @ fit.bases) / area), fit.bases
        fit = fit_nmf(unit_surfaces, k, SURFACE_LOSSES[model], config.nmf)
        return unit_rows(fit.weights @ fit.bases)[0], volumes, fit.bases

    entries: list[EvalEntry] = []
    recovery: dict = {}
    for k in k_list:
        for model in (m for m in MODEL_NAMES if m in config.models):
            rows, vols, bases = reduce(model, k)
            scores = heldout_loglik(cm_test.counts, rows, vols, config.fraction, area)
            entries.append(EvalEntry(model, k, scores))
            if bases is not None and k >= k_star:
                recovery[(model, k)] = basis_recovery_score(bases, truth_bases)

    return EvalReport(entries=entries, players=players, recovery=recovery)
