"""Compute kernels for the sampling inner loops, in two flavors.

Every kernel exists as a pure-numpy implementation (``*_numpy``) and, when
numba is importable, all but ``sq_exp_matrix`` have a JIT-compiled loop
version (``*_numba``).  The public names are bound once at import time:

* ``SHOTFACTOR_BACKEND=numpy``  forces the pure-numpy path,
* ``SHOTFACTOR_BACKEND=numba``  (the default) uses the JIT kernels and falls
  back to numpy if numba is not installed.

Both flavors implement the same arithmetic; they may differ in the last few
ulps because summation order differs.  ``benchmarks/bench_kernels.py`` times
the two paths side by side.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy.special import expit, gammaln

_requested = os.environ.get("SHOTFACTOR_BACKEND", "numba").strip().lower()
if _requested not in ("numba", "numpy"):
    raise ValueError(
        f"SHOTFACTOR_BACKEND must be 'numba' or 'numpy', got {_requested!r}"
    )

HAS_NUMBA = False
if _requested == "numba":
    try:
        from numba import njit

        HAS_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        pass

BACKEND = "numba" if HAS_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# Pure-numpy kernels
# ---------------------------------------------------------------------------


def poisson_field_loglik_numpy(counts, field, bias, area, log_norm=None):
    """Poisson log-likelihood of per-tile counts under rates exp(field + bias).

    Returns sum_v [c_v*log(area*rate_v) - area*rate_v - log(c_v!)].
    ``log_norm`` is sum_v log(c_v!), computed here when None; a caller that
    evaluates the same counts many times passes it in.
    """
    if log_norm is None:
        log_norm = gammaln(counts + 1.0).sum()
    log_rate = field + bias
    return float(
        np.dot(counts, math.log(area) + log_rate)
        - area * np.exp(log_rate).sum()
        - log_norm
    )


def bernoulli_logits_loglik_numpy(makes, attempts, logits):
    """Binomial log-likelihood of make/attempt counts under per-cell logits."""
    # log sigma(x) = -log(1+e^-x); log(1-sigma(x)) = -log(1+e^x)
    return float(
        -(
            makes * np.logaddexp(0.0, -logits)
            + (attempts - makes) * np.logaddexp(0.0, logits)
        ).sum()
    )


def draw_type_indices_numpy(weights, bases, players, tiles, uniforms):
    """Draw one mixture-component index per shot by inverse CDF.

    Component probabilities for shot i are proportional to
    weights[players[i], k] * bases[k, tiles[i]].  A shot whose probabilities
    sum to zero falls back to a uniform draw over components.
    """
    probs = weights[players] * bases[:, tiles].T
    totals = probs.sum(axis=1)
    k = weights.shape[1]
    dead = totals <= 0.0
    if np.any(dead):
        probs[dead] = 1.0
        totals[dead] = float(k)
    cum = np.cumsum(probs, axis=1)
    draws = (uniforms[:, None] * totals[:, None] > cum).sum(axis=1)
    return np.minimum(draws, k - 1).astype(np.int64)


def sq_exp_matrix_numpy(cx, cy, variance, length_scale):
    """Dense squared-exponential covariance over points (cx, cy)."""
    d2 = (cx[:, None] - cx[None, :]) ** 2 + (cy[:, None] - cy[None, :]) ** 2
    return variance * np.exp(-0.5 * d2 / length_scale**2)


def aggregate_outcomes_numpy(players, types, made, n_players, n_types):
    """Per (player, component) make and attempt counts."""
    cells = players * n_types + types
    size = n_players * n_types
    attempts = np.bincount(cells, minlength=size).astype(np.float64)
    makes = np.bincount(cells, weights=made, minlength=size)
    return makes.reshape(n_players, n_types), attempts.reshape(n_players, n_types)


def mixture_probability_surface_numpy(weights_row, bases, logits_row):
    """Per-tile success probability sum_k sigma(logit_k) p(k|tile).

    Tiles where every component has zero density get the uniform mixture.
    """
    num = weights_row[:, None] * bases
    denom = num.sum(axis=0)
    dead = denom <= 0.0
    if np.any(dead):
        num[:, dead] = 1.0
        denom = np.where(dead, float(bases.shape[0]), denom)
    return (expit(logits_row) @ num) / denom


# ---------------------------------------------------------------------------
# Numba kernels (same arithmetic, explicit loops)
# ---------------------------------------------------------------------------

if HAS_NUMBA:

    @njit(cache=True)
    def poisson_field_loglik_numba(counts, field, bias, area, log_norm=None):
        log_area = math.log(area)
        total = 0.0
        for v in range(field.shape[0]):
            log_rate = field[v] + bias
            total += counts[v] * (log_area + log_rate) - area * math.exp(log_rate)
        if log_norm is None:
            for v in range(counts.shape[0]):
                total -= math.lgamma(counts[v] + 1.0)
        else:
            total -= log_norm
        return total

    @njit(cache=True)
    def bernoulli_logits_loglik_numba(makes, attempts, logits):
        m = makes.ravel()
        a = attempts.ravel()
        x = logits.ravel()
        total = 0.0
        for i in range(x.shape[0]):
            if x[i] >= 0.0:
                log_p = -math.log1p(math.exp(-x[i]))
                log_q = -x[i] + log_p
            else:
                log_q = -math.log1p(math.exp(x[i]))
                log_p = x[i] + log_q
            total += m[i] * log_p + (a[i] - m[i]) * log_q
        return total

    @njit(cache=True)
    def draw_type_indices_numba(weights, bases, players, tiles, uniforms):
        n_shots = players.shape[0]
        k = weights.shape[1]
        out = np.empty(n_shots, dtype=np.int64)
        probs = np.empty(k)
        for i in range(n_shots):
            total = 0.0
            for j in range(k):
                p = weights[players[i], j] * bases[j, tiles[i]]
                probs[j] = p
                total += p
            if total <= 0.0:
                for j in range(k):
                    probs[j] = 1.0
                total = float(k)
            target = uniforms[i] * total
            cum = 0.0
            chosen = k - 1
            for j in range(k):
                cum += probs[j]
                if target <= cum:
                    chosen = j
                    break
            out[i] = chosen
        return out

    @njit(cache=True)
    def aggregate_outcomes_numba(players, types, made, n_players, n_types):
        makes = np.zeros((n_players, n_types))
        attempts = np.zeros((n_players, n_types))
        for i in range(players.shape[0]):
            attempts[players[i], types[i]] += 1.0
            makes[players[i], types[i]] += made[i]
        return makes, attempts

    @njit(cache=True)
    def mixture_probability_surface_numba(weights_row, bases, logits_row):
        k, v = bases.shape
        out = np.empty(v)
        for t in range(v):
            denom = 0.0
            acc = 0.0
            for j in range(k):
                w = weights_row[j] * bases[j, t]
                denom += w
                acc += w / (1.0 + math.exp(-logits_row[j]))
            if denom <= 0.0:
                acc = 0.0
                for j in range(k):
                    acc += 1.0 / (1.0 + math.exp(-logits_row[j]))
                out[t] = acc / k
            else:
                out[t] = acc / denom
        return out


if HAS_NUMBA:
    poisson_field_loglik = poisson_field_loglik_numba
    bernoulli_logits_loglik = bernoulli_logits_loglik_numba
    draw_type_indices = draw_type_indices_numba
    aggregate_outcomes = aggregate_outcomes_numba
    mixture_probability_surface = mixture_probability_surface_numba
else:
    poisson_field_loglik = poisson_field_loglik_numpy
    bernoulli_logits_loglik = bernoulli_logits_loglik_numpy
    draw_type_indices = draw_type_indices_numpy
    aggregate_outcomes = aggregate_outcomes_numpy
    mixture_probability_surface = mixture_probability_surface_numpy

# Called twice per prior build on one court axis (at most 50 points): no JIT
# twin, whose compilation would cost more than the kernel.
sq_exp_matrix = sq_exp_matrix_numpy
