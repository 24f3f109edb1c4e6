"""Per-player intensity surfaces: Poisson likelihood, elliptical slice
sampling, posterior-mean fitting, and unit-volume normalization."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import gammaln

from . import backend
from .court import CourtGrid
from .gp import CovFactor, KernelHyper, sample_field

_MAX_SHRINK = 1000


@dataclass
class LgcpConfig:
    """Sampler settings for one intensity fit.

    ``log_mean_rate`` is the fixed additive bias of the log-intensity; None
    means the empirical value log(total count / court area).
    """

    hyper: KernelHyper = field(default_factory=KernelHyper)
    log_mean_rate: float | None = None
    burn_in: int = 500
    n_samples: int = 500
    thinning: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.burn_in < 0 or self.n_samples < 1 or self.thinning < 1:
            raise ValueError("burn_in >= 0, n_samples >= 1, thinning >= 1 required")


@dataclass(eq=False)
class IntensitySurface:
    """Non-negative per-tile rates; ``normalized`` marks unit volume."""

    values: np.ndarray
    grid: CourtGrid
    normalized: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.n_tiles,):
            raise ValueError("surface length does not match grid")
        if np.any(self.values < 0):
            raise ValueError("intensity values must be non-negative")

    def volume(self) -> float:
        return float(self.values.sum() * self.grid.tile_area)


def poisson_loglik(
    counts: np.ndarray, field: np.ndarray, log_mean_rate: float, area: float
) -> float:
    """Discretized point-process log-likelihood of tile counts.

    Rates are exp(field + log_mean_rate) per unit area; each tile contributes
    c*log(area*rate) - area*rate - log(c!).
    """
    counts = np.ascontiguousarray(counts, dtype=np.float64)
    field = np.ascontiguousarray(field, dtype=np.float64)
    return float(
        backend.poisson_field_loglik(counts, field, float(log_mean_rate), float(area))
    )


def poisson_count_loglik(counts: np.ndarray, rates: np.ndarray, area: float) -> float:
    """Same likelihood parameterized by per-tile rates directly."""
    counts = np.asarray(counts, dtype=np.float64)
    lam = area * np.asarray(rates, dtype=np.float64)
    return float(np.sum(counts * np.log(lam) - lam - gammaln(counts + 1.0)))


def ess_update(
    state: np.ndarray,
    aux: np.ndarray,
    loglik: Callable[[np.ndarray], float],
    rng: np.random.Generator,
    cur_loglik: float | None = None,
) -> tuple[np.ndarray, float]:
    """One elliptical slice move given an auxiliary prior draw ``aux``.

    Proposes along the ellipse state*cos(t) + aux*sin(t), shrinking the angle
    bracket [t - 2pi, t] toward 0 until a proposal clears the log threshold.
    Non-finite proposal log-likelihoods count as rejections.
    """
    if cur_loglik is None:
        cur_loglik = loglik(state)
    if not math.isfinite(cur_loglik):
        raise ValueError("log-likelihood must be finite at the current state")
    threshold = cur_loglik + math.log(rng.random())
    theta = 2.0 * math.pi * rng.random()
    lo, hi = theta - 2.0 * math.pi, theta
    for _ in range(_MAX_SHRINK):
        proposal = state * math.cos(theta) + aux * math.sin(theta)
        lp = loglik(proposal)
        if math.isfinite(lp) and lp > threshold:
            return proposal, lp
        if theta < 0.0:
            lo = theta
        else:
            hi = theta
        theta = lo + (hi - lo) * rng.random()
    raise RuntimeError("slice bracket shrank to zero without acceptance")


def ess_step(
    state: np.ndarray,
    factor: CovFactor,
    loglik: Callable[[np.ndarray], float],
    rng: np.random.Generator,
    cur_loglik: float | None = None,
) -> tuple[np.ndarray, float]:
    """Elliptical slice move whose auxiliary draw comes from the field prior."""
    return ess_update(state, sample_field(factor, rng), loglik, rng, cur_loglik)


def fit_lgcp(
    counts: np.ndarray,
    factor: CovFactor,
    grid: CourtGrid,
    config: LgcpConfig,
    rng: np.random.Generator | None = None,
) -> IntensitySurface:
    """Posterior-mean intensity surface for one player's tile counts.

    Runs burn-in, then keeps every ``thinning``-th state and averages the
    intensities exp(field + bias) over kept states (mean of intensities, not
    the exponential of the mean field).
    """
    counts = np.asarray(counts)
    if counts.shape != (grid.n_tiles,):
        raise ValueError("counts length does not match grid")
    if config.log_mean_rate is None:
        total = int(counts.sum())
        if total == 0:
            raise ValueError(
                "player has zero shots; pass an explicit log_mean_rate"
            )
        bias = math.log(total / (grid.n_tiles * grid.tile_area))
    else:
        bias = float(config.log_mean_rate)
    if rng is None:
        rng = np.random.default_rng([config.seed])
    area = grid.tile_area
    counts_f = np.ascontiguousarray(counts, dtype=np.float64)
    # log(c!) does not depend on the field: sum it once per player
    log_norm = gammaln(counts_f + 1.0).sum()

    def loglik(z):
        return backend.poisson_field_loglik(counts_f, z, bias, area, log_norm)

    z = np.zeros(grid.n_tiles)
    ll = loglik(z)
    for _ in range(config.burn_in):
        z, ll = ess_step(z, factor, loglik, rng, ll)
    mean = np.zeros(grid.n_tiles)
    for _ in range(config.n_samples):
        for _ in range(config.thinning):
            z, ll = ess_step(z, factor, loglik, rng, ll)
        mean += np.exp(z + bias)
    mean /= config.n_samples
    return IntensitySurface(mean, grid, normalized=False)


def normalize_unit_volume(
    surface: IntensitySurface,
) -> tuple[IntensitySurface, float]:
    """Scale a surface to unit volume; returns (normalized, original volume)."""
    volume = surface.volume()
    if volume <= 0:
        raise ValueError("cannot normalize a surface with zero volume")
    scaled = IntensitySurface(surface.values / volume, surface.grid, normalized=True)
    return scaled, volume


def fit_cohort(
    counts: np.ndarray, factor: CovFactor, grid: CourtGrid, config: LgcpConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Fit every row of a count matrix with its own derived RNG stream.

    Returns the stacked unit-volume surfaces (N x V) and the train volumes.
    Row order alone determines each player's stream, so results do not
    depend on scheduling.
    """
    counts = np.asarray(counts)
    n = counts.shape[0]
    surfaces = np.empty((n, grid.n_tiles))
    volumes = np.empty(n)
    for i in range(n):
        # stream tag 2: cohort chains stay disjoint from other stages
        rng = np.random.default_rng([config.seed, 2, i])
        fitted = fit_lgcp(counts[i], factor, grid, config, rng=rng)
        unit, volumes[i] = normalize_unit_volume(fitted)
        surfaces[i] = unit.values
    return surfaces, volumes
