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
    top = int(counts.max(initial=0)) + 1
    table = np.array([math.lgamma(c + 1.0) for c in range(top)], dtype=np.float64)
    return table[counts]


def expit(x):
    """Logistic function 1 / (1 + exp(-x)), elementwise.

    exp(-x) overflows to inf below x = -709 and underflows to 0 above
    x = 745; both give the exact limit (0 or 1), so neither is an error.
    """
    with np.errstate(over="ignore", under="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def poisson_field_loglik(field, scale, const):
    """Non-linear part of a Poisson log-likelihood over tiles: const -
    scale * sum_v exp(field_v).

    For counts c at rates exp(field + bias) on tiles of area ``area``, the
    full log-likelihood is this value plus c . field, with scale =
    area * e^bias and const = sum(c) * (log(area) + bias) - sum_v log(c_v!).
    The linear term is left to the caller: on a slice ellipse it is two dot
    products per move (see ``lgcp.ess_update``).
    """
    return float(const - scale * np.exp(field).sum())


def bernoulli_logits_loglik(attempts, logits):
    """Non-linear part of a binomial log-likelihood over cells:
    -sum attempts * log(1 + e^logits).

    The full log-likelihood of ``makes`` out of ``attempts`` is this value
    plus makes . logits, since log sigma(x) = x - log(1 + e^x) and
    log(1 - sigma(x)) = -log(1 + e^x).
    """
    return float(-np.dot(attempts, np.logaddexp(0.0, logits)))


def type_weights(weights, bases, rows, tiles):
    """S x K products weights[rows[i], k] * bases[k, tiles[i]], and their sums.

    Each type's products go straight into its column of the S x K table, so
    no S x K gathered copy of weights or bases is made.  A pair no basis
    reaches (sum <= 0) gets weight 1 per type and sum K.
    """
    k = weights.shape[1]
    probs = np.empty((len(rows), k))
    for col in range(k):
        np.multiply(weights[rows, col], bases[col, tiles], out=probs[:, col])
    totals = probs.sum(axis=1)
    dead = totals <= 0.0
    if np.any(dead):
        probs[dead] = 1.0
        totals[dead] = float(k)
    return probs, totals


def draw_type_indices(cum, totals, uniforms):
    """Inverse-CDF type draw per shot from cumsum(type_weights) and its sums."""
    x = uniforms * totals
    draws = np.zeros(len(x), dtype=np.int64)
    # each row of cum is non-decreasing, so counting its first K - 1
    # columns below x caps the index at K - 1 even where rounding puts x
    # at or above the row total
    for col in range(cum.shape[1] - 1):
        draws += x > cum[:, col]
    return draws


def sq_exp_matrix(points, length_scale):
    """Unit-variance squared-exponential kernel over 1-D points."""
    d2 = (points[:, None] - points[None, :]) ** 2
    return np.exp(-0.5 * d2 / length_scale**2)


def aggregate_outcomes(players, types, made, n_players, n_types):
    """Per (player, component) make and attempt counts."""
    cells = players * n_types
    cells += types
    size = n_players * n_types
    attempts = np.bincount(cells, minlength=size).astype(np.float64)
    makes = np.bincount(cells, weights=made, minlength=size)
    return makes.reshape(n_players, n_types), attempts.reshape(n_players, n_types)


def mixture_probability_surface(weights, bases, logits):
    """Per-tile success probability sum_k sigma(logits[r, k]) p(k | r, tile)
    of each row r of weights and logits (R x K); returns R x V.

    The R x K x V products weights[r, k] * bases[k, v] are broadcast in one
    array.  A (row, tile) pair where every component has zero density gets
    weight 1 per type, the uniform mixture, as ``type_weights`` gives it.
    Each row's numerator is the vector-matrix product sigma(logits[r]) @
    products[r] and its denominator the column sum of the K x V products,
    taken in type order.
    """
    num = weights[:, :, None] * bases[None, :, :]
    den = num.sum(axis=1)
    dead = den <= 0.0
    num.transpose(0, 2, 1)[dead] = 1.0
    den[dead] = float(num.shape[1])
    surface = (expit(logits)[:, None, :] @ num)[:, 0, :]
    surface /= den
    return surface
