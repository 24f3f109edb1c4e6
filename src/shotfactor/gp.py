"""Squared-exponential covariance over tile centers, in Kronecker-factored
form, and Gaussian field draws."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .court import CourtGrid, check_number


@dataclass(frozen=True)
class KernelHyper:
    """Marginal variance and length-scale (feet) of the smoothness prior."""

    variance: float = 1.0
    length_scale: float = 4.0

    def __post_init__(self):
        check_number("variance", self.variance, 0, strict=True)
        check_number("length_scale", self.length_scale, 0, strict=True)


@dataclass(eq=False)
class CovFactor:
    """Lower Cholesky factors of the unit-variance row (ny x ny) and column
    (nx x nx) kernels, each with ``jitter / scale**2`` on its diagonal; the
    tile covariance is ``scale**2 * Ky ⊗ Kx``.  Immutable by convention: a
    factor may be shared across concurrent fits.
    """

    lower_y: np.ndarray
    lower_x: np.ndarray
    scale: float
    jitter: float

    @property
    def dim(self) -> int:
        return self.lower_y.shape[0] * self.lower_x.shape[0]


def build_cov_factor(grid: CourtGrid, hyper: KernelHyper) -> CovFactor:
    """Factorize the tile covariance as ``variance * Ky ⊗ Kx``.

    The squared-exponential kernel is separable, so on the tile grid only
    the 1-D kernels over row and column centers are built: O(nx^2 + ny^2)
    memory, not O(V^2).  Jitter of 1e-6 * variance is added to both
    factors' diagonals, which moves the covariance by O(jitter); a failed
    factorization retries with jitter scaled by 10, up to 3 times.
    """
    xs, ys = grid.axis_centers()
    kernels = [backend.sq_exp_matrix(axis, hyper.length_scale) for axis in (ys, xs)]
    current = 1e-6 * hyper.variance
    for attempt in range(4):
        try:
            lower_y, lower_x = [
                np.linalg.cholesky(k + (current / hyper.variance) * np.eye(len(k)))
                for k in kernels
            ]
            return CovFactor(lower_y, lower_x, math.sqrt(hyper.variance), current)
        except np.linalg.LinAlgError:
            if attempt < 3:
                current *= 10.0
    raise np.linalg.LinAlgError(
        f"covariance not positive definite even with jitter {current}"
    )


def sample_field(factor: CovFactor, rng: np.random.Generator) -> np.ndarray:
    """One zero-mean Gaussian field draw with the factor's covariance.

    ``scale * L_y @ Z @ L_x.T`` for ny x nx standard normals ``Z``, raveled
    row-major (x fastest): the same as ``scale * (L_y ⊗ L_x) @ Z.ravel()``.
    The CLI holds OpenBLAS to one thread so its artifacts do not depend on
    the thread count; library callers get that only under
    ``OPENBLAS_NUM_THREADS=1``.
    """
    z = rng.standard_normal((factor.lower_y.shape[0], factor.lower_x.shape[0]))
    return factor.scale * (factor.lower_y @ z @ factor.lower_x.T).ravel()
