"""Non-negative factorization of stacked intensity surfaces, with a PCA
baseline.  Both losses use the classic multiplicative updates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .court import check_number

EPS_FLOOR = 1e-12

# Added to raw count matrices before a KL fit, so no target entry is zero.
COUNT_JITTER = 1e-8

# Update steps between convergence checks.  A loss evaluation costs about as
# much as an update, so checking every step would double the price of a fit.
CHECK_EVERY = 10

# The losses fit_nmf minimizes, by the name a config or a flag gives.
LOSSES = ("kl", "frobenius")


@dataclass
class NmfConfig:
    max_iters: int = 2000
    tol: float = 1e-6
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        check_number("max_iters", self.max_iters, 0, integer=True)
        check_number("tol", self.tol, 0)
        check_number("restarts", self.restarts, 1, integer=True)
        check_number("seed", self.seed, 0, integer=True)


@dataclass(eq=False)
class FactorModel:
    """Non-negative weights (N x K) and bases (K x V) with the fit record."""

    weights: np.ndarray
    bases: np.ndarray
    final_loss: float
    trace: np.ndarray
    n_iters: int
    converged: bool  # the tolerance test stopped the fit, not max_iters

    @property
    def k(self) -> int:
        return self.weights.shape[1]


@dataclass(eq=False)
class PcaModel:
    """Mean row plus orthonormal components and per-player scores."""

    mean: np.ndarray
    scores: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def frobenius_loss(x: np.ndarray, y: np.ndarray) -> float:
    """Sum of squared entrywise differences."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(((x - y) ** 2).sum())


def kl_loss(x: np.ndarray, y: np.ndarray) -> float:
    """Generalized KL divergence sum(x log(x/y) - x + y), with 0 log 0 = 0.

    Returns inf when some x > 0 sits where y = 0.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    pos = x > 0
    if np.any(pos & (y <= 0)):
        return float("inf")
    # The same terms in the same places as masking x > 0, without the gathers.
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pos, x * np.log(x / y), 0.0)
    return float(terms.sum() - x.sum() + y.sum())


# ---------------------------------------------------------------------------
# Multiplicative updates
# ---------------------------------------------------------------------------


def nmf_step_frobenius(w, b, target):
    """One multiplicative update pair under the squared loss: W first, then B
    using the updated W.  Factors are floored at EPS_FLOOR."""
    w = w * (target @ b.T) / (w @ (b @ b.T) + EPS_FLOOR)
    w = np.maximum(w, EPS_FLOOR)
    b = b * (w.T @ target) / ((w.T @ w) @ b + EPS_FLOOR)
    b = np.maximum(b, EPS_FLOOR)
    return w, b


def nmf_step_kl(w, b, target):
    """One multiplicative update pair under the generalized KL loss."""
    ratio = target / np.maximum(w @ b, EPS_FLOOR)
    w = w * (ratio @ b.T) / (b.sum(axis=1)[None, :] + EPS_FLOOR)
    w = np.maximum(w, EPS_FLOOR)
    ratio = target / np.maximum(w @ b, EPS_FLOOR)
    b = b * (w.T @ ratio) / (w.sum(axis=0)[:, None] + EPS_FLOOR)
    b = np.maximum(b, EPS_FLOOR)
    return w, b


_STEPS = {"frobenius": nmf_step_frobenius, "kl": nmf_step_kl}
_LOSS_FNS = {"frobenius": frobenius_loss, "kl": kl_loss}


def _init_factors(target, k, rng):
    n, v = target.shape
    w = rng.uniform(0.1, 1.0, size=(n, k))
    b = rng.uniform(0.1, 1.0, size=(k, v))
    # match the data's total mass at the start
    scale = np.sqrt(target.sum() / max((w @ b).sum(), EPS_FLOOR))
    return w * scale, b * scale


def fit_nmf(data, k: int, loss: str = LOSSES[0], config: NmfConfig | None = None) -> FactorModel:
    """Factorize a non-negative matrix, keeping the best of several restarts.

    Iterates the per-loss multiplicative update and evaluates the loss every
    ``CHECK_EVERY`` steps and after the last one, stopping when the mean
    relative decrease per step over a window drops below ``config.tol`` or
    after ``config.max_iters`` steps.  ``n_iters`` counts the steps taken,
    ``converged`` says whether the tolerance test stopped them (a fit that
    meets it on its last check has converged too), and ``trace`` holds the
    starting loss and the loss at each check.  Raw count
    matrices need ``COUNT_JITTER`` added first under the KL loss.
    """
    if loss not in LOSSES:
        raise ValueError(f"loss must be one of {LOSSES}, got {loss!r}")
    config = config or NmfConfig()
    target = np.asarray(data, dtype=np.float64)
    n, v = target.shape
    check_number("k", k, 1, min(n, v), integer=True)
    step, loss_fn = _STEPS[loss], _LOSS_FNS[loss]

    best: FactorModel | None = None
    for restart in range(config.restarts):
        # stream tag 3: restart inits stay disjoint from other stages
        rng = np.random.default_rng([config.seed, 3, restart])
        w, b = _init_factors(target, k, rng)
        prev = loss_fn(target, w @ b)
        trace = [prev]
        steps = 0
        converged = False
        while steps < config.max_iters and not converged:
            window = min(CHECK_EVERY, config.max_iters - steps)
            for _ in range(window):
                w, b = step(w, b, target)
            steps += window
            cur = loss_fn(target, w @ b)
            trace.append(cur)
            converged = prev - cur < config.tol * window * max(abs(prev), 1e-300)
            prev = cur
        model = FactorModel(
            weights=w,
            bases=b,
            final_loss=trace[-1],
            trace=np.array(trace),
            n_iters=steps,
            converged=converged,
        )
        if best is None or model.final_loss < best.final_loss:
            best = model
    return best


# ---------------------------------------------------------------------------
# PCA baseline
# ---------------------------------------------------------------------------


def fit_pca(data, k: int) -> PcaModel:
    """Top-k principal components of the row-centered matrix.

    Sign convention: each component's largest-magnitude entry is positive.
    """
    matrix = np.asarray(data, dtype=np.float64)
    n, v = matrix.shape
    check_number("k", k, 1, min(n - 1, v), integer=True)
    mean = matrix.mean(axis=0)
    centered = matrix - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:k].copy()
    for i in range(k):
        j = int(np.argmax(np.abs(components[i])))
        if components[i, j] < 0:
            components[i] = -components[i]
    scores = centered @ components.T
    return PcaModel(
        mean=mean,
        scores=scores,
        components=components,
        explained_variance=s[:k] ** 2 / max(n - 1, 1),
    )


def pca_reconstruct(model: PcaModel) -> np.ndarray:
    """Mean plus the top-k projection of every row."""
    return model.mean + model.scores @ model.components
