"""Compute kernels for the sampling inner loops, and the two special
functions the models need (log-factorial and logistic).

Each kernel has one pure-numpy implementation, vectorized over tiles, shots
or players.  ``perfbench/tracer.py`` times them inside pipeline runs.
"""

from __future__ import annotations

import math

import numpy as np


def log_factorial(counts):
    """log(c!) of each non-negative integer count, same shape as ``counts``.

    Values are exact ``math.lgamma(c + 1)``, looked up in a table that runs
    to the largest count.
    """
    counts = np.asarray(counts, dtype=np.int64)
    top = int(counts.max()) + 1 if counts.size else 0
    table = np.array([math.lgamma(c + 1.0) for c in range(top)], dtype=np.float64)
    return table[counts]


def expit(x):
    """Logistic function 1 / (1 + exp(-x)), elementwise.

    exp(-x) overflows to inf below x = -709 and underflows to 0 above
    x = 745; both give the exact limit (0 or 1), so neither is an error.
    """
    with np.errstate(over="ignore", under="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def poisson_field_loglik(counts, field, bias, area, log_norm):
    """Poisson log-likelihood of per-tile counts under rates exp(field + bias).

    Returns sum_v [c_v*log(area*rate_v) - area*rate_v - log(c_v!)], where
    ``log_norm`` is sum_v log(c_v!) (``log_factorial(counts).sum()``), which
    a caller that evaluates the same counts many times sums once.
    """
    log_rate = field + bias
    return float(
        np.dot(counts, math.log(area) + log_rate)
        - area * np.exp(log_rate).sum()
        - log_norm
    )


def bernoulli_logits_loglik(makes, attempts, logits):
    """Binomial log-likelihood of make/attempt counts under per-cell logits."""
    # log sigma(x) = -log(1+e^-x); log(1-sigma(x)) = -log(1+e^x)
    return float(
        -(
            makes * np.logaddexp(0.0, -logits)
            + (attempts - makes) * np.logaddexp(0.0, logits)
        ).sum()
    )


def type_weights(weights, bases, rows, tiles):
    """S x K products weights[rows[i], k] * bases[k, tiles[i]], and their sums.

    A pair no basis reaches (sum <= 0) gets weight 1 per type and sum K.
    """
    probs = weights[rows] * bases[:, tiles].T
    totals = probs.sum(axis=1)
    dead = totals <= 0.0
    if np.any(dead):
        probs[dead] = 1.0
        totals[dead] = float(probs.shape[1])
    return probs, totals


def draw_type_indices(cum, totals, uniforms):
    """Inverse-CDF type draw per shot from cumsum(type_weights) and its sums."""
    k = cum.shape[1]
    draws = (uniforms[:, None] * totals[:, None] > cum).sum(axis=1)
    return np.minimum(draws, k - 1).astype(np.int64)


def sq_exp_matrix(cx, cy, variance, length_scale):
    """Dense squared-exponential covariance over points (cx, cy)."""
    d2 = (cx[:, None] - cx[None, :]) ** 2 + (cy[:, None] - cy[None, :]) ** 2
    return variance * np.exp(-0.5 * d2 / length_scale**2)


def aggregate_outcomes(players, types, made, n_players, n_types):
    """Per (player, component) make and attempt counts."""
    cells = players * n_types + types
    size = n_players * n_types
    attempts = np.bincount(cells, minlength=size).astype(np.float64)
    makes = np.bincount(cells, weights=made, minlength=size)
    return makes.reshape(n_players, n_types), attempts.reshape(n_players, n_types)


def mixture_probability_surface(weights, bases, logits):
    """Per-tile success probability sum_k sigma(logits[r, k]) p(k | r, tile)
    of each row r of weights and logits (R x K); returns R x V.

    The products come from one ``type_weights`` call over every (row, tile)
    pair, so a tile where every component has zero density gets the uniform
    mixture.  Each row's numerator is the vector-matrix product
    sigma(logits[r]) @ products[r] and its denominator the column sum of
    the K x V products, taken in type order.
    """
    r, k = weights.shape
    v = bases.shape[1]
    rows = np.repeat(np.arange(r), v)
    probs, _ = type_weights(weights, bases, rows, np.tile(np.arange(v), r))
    num = np.ascontiguousarray(probs.reshape(r, v, k).transpose(0, 2, 1))
    return (expit(logits)[:, None, :] @ num)[:, 0, :] / num.sum(axis=1)
