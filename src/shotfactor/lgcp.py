"""Per-player intensity surfaces: elliptical slice sampling of the field,
posterior-mean fitting, and unit-volume normalization."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import backend
from .court import CourtGrid, check_number
from .gp import CovFactor, KernelHyper, sample_field

_MAX_SHRINK = 1000


@dataclass
class LgcpConfig:
    """Sampler settings for one intensity fit."""

    hyper: KernelHyper = field(default_factory=KernelHyper)
    burn_in: int = 500
    n_samples: int = 500
    thinning: int = 2
    seed: int = 0

    def __post_init__(self):
        check_number("burn_in", self.burn_in, 0, integer=True)
        check_number("n_samples", self.n_samples, 1, integer=True)
        check_number("thinning", self.thinning, 1, integer=True)
        check_number("seed", self.seed, 0, integer=True)


def ess_update(
    state: np.ndarray,
    aux: np.ndarray,
    loglik: Callable[[np.ndarray], float],
    rng: np.random.Generator,
    cur_loglik: float | None = None,
    linear: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """One elliptical slice move given an auxiliary prior draw ``aux``.

    Proposes along the ellipse state*cos(t) + aux*sin(t), shrinking the angle
    bracket [t - 2pi, t] toward 0 until a proposal clears the log threshold.
    Non-finite proposal log-likelihoods count as rejections.

    With ``linear`` = c the log-likelihood is c . x + loglik(x): on the
    ellipse c . x = cos(t) c . state + sin(t) c . aux, so the move takes
    the two dot products once and each proposal evaluates only ``loglik``.
    ``cur_loglik`` and the returned value are the full log-likelihood.
    """
    a = b = 0.0
    if linear is not None:
        a, b = float(np.dot(linear, state)), float(np.dot(linear, aux))
    if cur_loglik is None:
        cur_loglik = a + loglik(state)
    if not math.isfinite(cur_loglik):
        raise ValueError("log-likelihood must be finite at the current state")
    threshold = cur_loglik + math.log(rng.random())
    theta = 2.0 * math.pi * rng.random()
    lo, hi = theta - 2.0 * math.pi, theta
    for _ in range(_MAX_SHRINK):
        cos, sin = math.cos(theta), math.sin(theta)
        proposal = state * cos + aux * sin
        lp = cos * a + sin * b + loglik(proposal)
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
    linear: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Elliptical slice move whose auxiliary draw comes from the field prior."""
    aux = sample_field(factor, rng)
    return ess_update(state, aux, loglik, rng, cur_loglik, linear)


def fit_lgcp(
    counts: np.ndarray,
    factor: CovFactor,
    grid: CourtGrid,
    config: LgcpConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Posterior-mean per-tile rates for one player's tile counts.

    The bias is log(total count / court area), so a player without shots
    is rejected.  Runs burn-in, then keeps every ``thinning``-th state and
    averages the intensities exp(field + bias) over kept states (mean of
    intensities, not the exponential of the mean field).  ``rng`` is the
    player's stream, which ``fit_cohort`` derives from its row.
    """
    counts = np.asarray(counts)
    if counts.shape != (grid.n_tiles,):
        raise ValueError("counts length does not match grid")
    total = int(counts.sum())
    if total == 0:
        raise ValueError("player has zero shots")
    bias = math.log(total / (grid.n_tiles * grid.tile_area))
    area = grid.tile_area
    counts_f = np.ascontiguousarray(counts, dtype=np.float64)
    # The log-likelihood is counts . z + const - scale * sum(exp(z)); the
    # slice move takes the linear term, the kernel the rest.  log(c!) does
    # not depend on the field: sum it once per player.
    scale = area * math.exp(bias)
    const = total * (math.log(area) + bias) - backend.log_factorial(counts).sum()

    def loglik(z):
        return backend.poisson_field_loglik(z, scale, const)

    z = np.zeros(grid.n_tiles)
    ll = loglik(z)  # counts . z is 0 at the start
    for _ in range(config.burn_in):
        z, ll = ess_step(z, factor, loglik, rng, ll, counts_f)
    mean = np.zeros(grid.n_tiles)
    for _ in range(config.n_samples):
        for _ in range(config.thinning):
            z, ll = ess_step(z, factor, loglik, rng, ll, counts_f)
        mean += np.exp(z + bias)
    mean /= config.n_samples
    return mean


def fit_cohort(
    counts: np.ndarray, factor: CovFactor, grid: CourtGrid, config: LgcpConfig, map=map
) -> tuple[np.ndarray, np.ndarray]:
    """Fit every row of a count matrix with its own derived RNG stream.

    Returns the stacked unit-volume surfaces (N x V) and the train volumes.
    The chains run through ``map`` (the lgcp stage passes ``fan_out``); row
    order alone sets each player's stream, so results do not depend on map.
    """
    counts = np.asarray(counts)

    def fit_row(i):  # stream tag 2: cohort chains stay disjoint from other stages
        rng = np.random.default_rng([config.seed, 2, i])
        return fit_lgcp(counts[i], factor, grid, config, rng)

    rates = np.array(list(map(fit_row, range(len(counts))))).reshape(-1, grid.n_tiles)
    return grid.unit_volume(rates)
