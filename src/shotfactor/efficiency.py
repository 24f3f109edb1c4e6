"""Hierarchical latent-variable model of shot outcomes.

Each attempt gets a latent type drawn from the player's factor mixture, and
the make probability depends on a per-player, per-type logit with a global
mean and a per-type variance.  Inference is Gibbs: type assignments are
resampled from their posterior, the stacked logit block is updated with
elliptical slice sampling, and the variances are conjugate draws.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import backend
from .court import check_number
from .lgcp import ess_update

# Fixed prior: global logits ~ N(0, SIGMA0_SQ), type variances ~ IG(PRIOR_A, PRIOR_B)
SIGMA0_SQ = 100.0
PRIOR_A = 0.1
PRIOR_B = 0.1


@dataclass(eq=False)
class AdjustedLoadings:
    """Weights folded with basis mass, next to row-normalized bases.

    ``bases`` rows sum to 1, so each is a distribution over tiles and
    ``weights[n]`` carries all of player n's mass.
    """

    weights: np.ndarray
    bases: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bases = np.asarray(self.bases, dtype=np.float64)
        if self.weights.shape[1] != self.bases.shape[0]:
            raise ValueError("weights and bases disagree on K")
        if np.any(self.weights < 0) or np.any(self.bases < 0):
            raise ValueError("loadings must be non-negative")
        sums = self.bases.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValueError("bases rows must sum to 1 within 1e-9")


@dataclass(eq=False)
class EfficiencyModel:
    """Global logit means, per-type variances, and per-player logits."""

    beta0: np.ndarray
    sigma2: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        self.beta0 = np.asarray(self.beta0, dtype=np.float64)
        self.sigma2 = np.asarray(self.sigma2, dtype=np.float64)
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if np.any(self.sigma2 <= 0):
            raise ValueError("variances must be strictly positive")
        if not (np.all(np.isfinite(self.beta0)) and np.all(np.isfinite(self.beta))):
            raise ValueError("logits must be finite")


@dataclass
class EfficiencyConfig:
    sweeps: int = 2000
    burn_in: int = 500
    seed: int = 0

    def __post_init__(self):
        check_number("sweeps", self.sweeps, 1, integer=True)
        check_number("burn_in", self.burn_in, 0, integer=True)
        check_number("seed", self.seed, 0, integer=True)
        if self.burn_in >= self.sweeps:
            raise ValueError(f"burn_in must be below sweeps, got {self.burn_in!r}")


@dataclass(eq=False)
class EfficiencyFit:
    """Posterior means plus the per-sweep hyperparameter traces."""

    model: EfficiencyModel
    prob: np.ndarray  # posterior mean of expit(beta), N x K
    beta0_trace: np.ndarray
    sigma2_trace: np.ndarray
    config: EfficiencyConfig


def adjust_weights(weights: np.ndarray, bases: np.ndarray) -> AdjustedLoadings:
    """Fold each basis's total mass into the NMF weights (N x K) and
    normalize the bases (K x V) to unit rows.

    Reconstructions are unchanged: weights[n] @ bases == W[n] @ B.  Bases
    with zero mass cannot carry any shot and are dropped with a warning.
    """
    mass = bases.sum(axis=1)
    keep = mass > 0
    if not np.all(keep):
        warnings.warn(
            f"dropping {int((~keep).sum())} zero-mass bases", stacklevel=2
        )
    mass = mass[keep]
    return AdjustedLoadings(
        weights=weights[:, keep] * mass[None, :], bases=bases[keep] / mass[:, None]
    )


def shot_type_posterior(
    tile: int, weights_row: np.ndarray, bases: np.ndarray
) -> np.ndarray:
    """p(k | tile) for one attempt: weights times basis density, normalized.

    A tile that no basis can produce gets a uniform vector.
    """
    row = np.asarray(weights_row, dtype=np.float64)[None, :]
    probs, totals = backend.type_weights(row, bases, [0], [tile])
    return probs[0] / totals[0]


def predict_fg_pct(
    tile: int, weights_row: np.ndarray, bases: np.ndarray, logits_row: np.ndarray
) -> float:
    """Make probability at a tile: type posterior mixed over per-type rates."""
    surface = backend.mixture_probability_surface(
        np.asarray(weights_row, dtype=np.float64)[None, :],
        np.asarray(bases, dtype=np.float64)[:, [tile]],
        np.asarray(logits_row, dtype=np.float64)[None, :],
    )
    return float(surface[0, 0])


def sample_shot_types(
    cum: np.ndarray, totals: np.ndarray, rng, uniforms: np.ndarray | None = None
) -> np.ndarray:
    """Draw one latent type per shot from cumsum(type_weights) and its sums.

    ``uniforms``, when given, is a float64 buffer of one value per shot that
    the draw's uniforms are written into, so a chain reuses one buffer.
    """
    return backend.draw_type_indices(cum, totals, rng.random(len(totals), out=uniforms))


def gibbs_sigma_update(beta: np.ndarray, beta0, a: float, b: float, rng):
    """Conjugate variance draws given the player logits (N x K) and the K
    global means, one per type in column order.

    Inverse-Gamma(a + N/2, b + half the squared deviations from the mean),
    realized as the reciprocal of one Gamma draw over all K types.  A
    column of N logits with a scalar mean gives one float.
    """
    beta = np.asarray(beta, dtype=np.float64)
    shape = a + beta.shape[0] / 2.0
    # one contiguous row per type, so each sum adds in the order of a column
    rate = b + 0.5 * (np.ascontiguousarray((beta - beta0).T) ** 2).sum(axis=-1)
    return 1.0 / rng.gamma(shape, 1.0 / rate)


def gibbs_beta_step(
    beta0: np.ndarray,
    beta: np.ndarray,
    sigma2: np.ndarray,
    makes: np.ndarray,
    attempts: np.ndarray,
    rng,
):
    """One slice update of the stacked (global, per-player) logit block.

    The stacked vector is jointly zero-mean Gaussian (globals are centered at
    zero, players at their global), so a single elliptical slice move covers
    the whole hierarchy.  The log-likelihood's linear term makes . logits
    goes to the slice move, whose coefficient vector is zero on the globals.
    Returns the new globals, logits, and log-likelihood.
    """
    n, k = beta.shape
    attempts64 = np.ascontiguousarray(attempts, dtype=np.float64).ravel()
    linear = np.concatenate([np.zeros(k), np.ravel(makes)])

    def loglik(stacked):
        return backend.bernoulli_logits_loglik(attempts64, stacked[k:])

    nu0 = rng.normal(0.0, np.sqrt(SIGMA0_SQ), size=k)
    nu = nu0 + rng.normal(0.0, np.sqrt(sigma2), size=(n, k))
    state, aux = np.concatenate([beta0, beta.ravel()]), np.concatenate([nu0, nu.ravel()])
    stacked, cur = ess_update(state, aux, loglik, rng, linear=linear)
    return stacked[:k], stacked[k:].reshape(n, k), cur


def fit_efficiency(
    players: np.ndarray,
    tiles: np.ndarray,
    made: np.ndarray,
    loadings: AdjustedLoadings,
    config: EfficiencyConfig | None = None,
) -> EfficiencyFit:
    """Gibbs sampler over types, logits, and variances.

    The loadings are fixed, so each shot's type posterior is built once.
    Per sweep: resample every shot's latent type, aggregate outcomes to
    per-player, per-type make/attempt counts, slice-update the logit block,
    then draw the K type variances in one call.  Posterior means are taken
    over the sweeps after burn-in, including the mean of the per-logit make
    probabilities (which differs from the probability at the mean logit).
    """
    config = config or EfficiencyConfig()
    players = np.ascontiguousarray(players, dtype=np.int64)
    tiles = np.ascontiguousarray(tiles, dtype=np.int64)
    # bincount weighs makes as float64, so the outcomes are converted once
    made = np.ascontiguousarray(made, dtype=np.float64)
    if players.size == 0:
        raise ValueError("no shots to fit")
    n, k = loadings.weights.shape
    if players.min() < 0 or players.max() >= n:
        raise ValueError("shot references a player without loadings")
    # stream tag 4: the Gibbs chain stays disjoint from other stages
    rng = np.random.default_rng([config.seed, 4])

    probs, totals = backend.type_weights(loadings.weights, loadings.bases, players, tiles)
    # column-major: draw_type_indices reads the table one column at a time
    cum = np.cumsum(probs, axis=1, out=np.empty_like(probs, order="F"))
    del probs
    uniforms = np.empty(len(totals))

    # Data-informed start: per-cell rates shrunk toward the pooled rate by a
    # few pseudo-attempts put every coordinate of the first state inside its
    # posterior typical set.  Sparse cells start essentially at the global
    # logit (where their posterior concentrates) and dense cells at their
    # empirical logit.  This matters because the slice angle is shared across
    # the stacked block: likelihood-tight coordinates cap it, so coordinates
    # that start far from their posterior move there only slowly.
    types = sample_shot_types(cum, totals, rng, uniforms)
    makes, attempts = backend.aggregate_outcomes(players, types, made, n, k)
    pooled = (makes.sum(axis=0) + 1.0) / (attempts.sum(axis=0) + 2.0)
    beta0 = np.log(pooled) - np.log1p(-pooled)
    cell = (makes + 8.0 * pooled) / (attempts + 8.0)
    beta = np.log(cell) - np.log1p(-cell)
    sigma2 = np.maximum(((beta - beta0) ** 2).mean(axis=0), 1e-2)

    beta0_trace = np.empty((config.sweeps, k))
    sigma2_trace = np.empty((config.sweeps, k))
    beta0_sum = np.zeros(k)
    beta_sum = np.zeros((n, k))
    sigma2_sum = np.zeros(k)
    prob_sum = np.zeros((n, k))

    for sweep in range(config.sweeps):
        types = sample_shot_types(cum, totals, rng, uniforms)
        makes, attempts = backend.aggregate_outcomes(players, types, made, n, k)
        beta0, beta, _ = gibbs_beta_step(beta0, beta, sigma2, makes, attempts, rng)
        sigma2 = gibbs_sigma_update(beta, beta0, PRIOR_A, PRIOR_B, rng)
        beta0_trace[sweep] = beta0
        sigma2_trace[sweep] = sigma2
        if sweep >= config.burn_in:
            beta0_sum += beta0
            beta_sum += beta
            sigma2_sum += sigma2
            prob_sum += backend.expit(beta)

    kept = config.sweeps - config.burn_in
    model = EfficiencyModel(
        beta0=beta0_sum / kept,
        sigma2=sigma2_sum / kept,
        beta=beta_sum / kept,
    )
    return EfficiencyFit(
        model=model,
        prob=prob_sum / kept,
        beta0_trace=beta0_trace,
        sigma2_trace=sigma2_trace,
        config=config,
    )


def efficiency_surface(
    loadings: AdjustedLoadings, model: EfficiencyModel
) -> np.ndarray:
    """Per-tile make probability of the global surface (row 0) and of each
    player (row i + 1), from one kernel call.

    The global surface replaces the player logits with the global means and
    weights the type posterior by the cohort-average loadings.
    """
    weights = np.vstack([loadings.weights.mean(axis=0), loadings.weights])
    logits = np.vstack([model.beta0, model.beta])
    return backend.mixture_probability_surface(weights, loadings.bases, logits)
