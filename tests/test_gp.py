"""Smoothness-prior covariance: kernel values, Kronecker-factored Cholesky
assembly, and the moments of sampled fields."""

import numpy as np
import pytest

from shotfactor.court import CourtGrid
from shotfactor.gp import CovFactor, KernelHyper, build_cov_factor, sample_field

GRID = CourtGrid(tile_size=(2.5, 2.0))


def squared_exponential(xi, xj, hyper: KernelHyper):
    """Covariance sigma^2 exp(-0.5 ||xi - xj||^2 / phi^2) between two points.

    Accepts single points of shape (2,) or broadcastable stacks (..., 2).
    """
    xi = np.asarray(xi, dtype=np.float64)
    xj = np.asarray(xj, dtype=np.float64)
    d2 = ((xi - xj) ** 2).sum(axis=-1)
    out = hyper.variance * np.exp(-0.5 * d2 / hyper.length_scale**2)
    return float(out) if np.ndim(out) == 0 else out


class TestKernelHyper:
    def test_defaults(self):
        h = KernelHyper()
        assert h.variance == 1.0
        assert h.length_scale == 4.0

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            KernelHyper(variance=0.0)
        with pytest.raises(ValueError):
            KernelHyper(length_scale=-1.0)


class TestSquaredExponential:
    def test_literal_value(self):
        """Distance phi apart gives variance * exp(-1/2)."""
        h = KernelHyper(variance=1.0, length_scale=5.0)
        got = squared_exponential([0.0, 0.0], [5.0, 0.0], h)
        np.testing.assert_allclose(got, 0.6065306597126334, rtol=1e-14)

    def test_zero_distance_gives_variance(self):
        h = KernelHyper(variance=2.3, length_scale=4.0)
        assert squared_exponential([1.0, 2.0], [1.0, 2.0], h) == 2.3

    def test_symmetry_and_decay(self):
        rng = np.random.default_rng(42)
        h = KernelHyper(variance=1.5, length_scale=3.0)
        for _ in range(30):
            a, b = rng.uniform(0, 35, size=(2, 2))
            kab = squared_exponential(a, b, h)
            assert kab == squared_exponential(b, a, h)
            assert 0 < kab <= h.variance

    def test_broadcasts_over_stacks(self):
        h = KernelHyper(variance=1.0, length_scale=5.0)
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        got = squared_exponential(pts, np.array([0.0, 0.0]), h)
        np.testing.assert_allclose(got, [1.0, np.exp(-0.5)])


class TestBuildCovFactor:
    def test_factor_reproduces_covariance(self):
        """The Kronecker covariance equals the dense squared-exponential
        covariance over tile centers to O(jitter), on the 350- and
        1,750-tile grids."""
        h = KernelHyper(variance=2.0, length_scale=4.0)
        for grid in (GRID, CourtGrid(tile_size=(1.0, 1.0))):
            factor = build_cov_factor(grid, h)
            centers = grid.tile_centers()
            dense = squared_exponential(centers[:, None, :], centers[None, :, :], h)
            full = factor.scale * np.kron(factor.lower_y, factor.lower_x)
            assert factor.dim == grid.n_tiles
            np.testing.assert_allclose(
                full @ full.T, dense, rtol=0, atol=3 * factor.jitter
            )

    def test_lower_triangular(self):
        factor = build_cov_factor(GRID, KernelHyper())
        assert factor.lower_y.shape == (GRID.ny, GRID.ny)
        assert factor.lower_x.shape == (GRID.nx, GRID.nx)
        np.testing.assert_array_equal(np.triu(factor.lower_y, k=1), 0.0)
        np.testing.assert_array_equal(np.triu(factor.lower_x, k=1), 0.0)
        assert factor.dim == GRID.n_tiles

    def test_fine_grid_factor_is_small(self):
        """At 1,750 tiles the two factors total under 64 KB."""
        factor = build_cov_factor(CourtGrid(tile_size=(1.0, 1.0)), KernelHyper())
        assert factor.dim == 1750
        assert factor.lower_y.nbytes + factor.lower_x.nbytes < 64 * 1024

    def test_default_jitter_scales_with_variance(self):
        f1 = build_cov_factor(GRID, KernelHyper(variance=1.0, length_scale=2.0))
        f4 = build_cov_factor(GRID, KernelHyper(variance=4.0, length_scale=2.0))
        assert f4.jitter == 4.0 * f1.jitter

    def test_long_length_scale_still_factorizes(self):
        """Nearly singular covariances succeed through jitter escalation."""
        h = KernelHyper(variance=1.0, length_scale=200.0)
        factor = build_cov_factor(GRID, h)
        assert np.all(np.isfinite(factor.lower_y))
        assert np.all(np.isfinite(factor.lower_x))


class TestSampleField:
    def test_moments_match_prior(self):
        """Empirical mean ~ 0 and marginal variance ~ kernel variance."""
        h = KernelHyper(variance=2.0, length_scale=3.0)
        factor = build_cov_factor(GRID, h)
        rng = np.random.default_rng(42)
        draws = np.stack([sample_field(factor, rng) for _ in range(2000)])
        assert draws.shape == (2000, GRID.n_tiles)
        np.testing.assert_allclose(draws.mean(), 0.0, atol=0.05)
        np.testing.assert_allclose(draws.var(axis=0).mean(), 2.0, rtol=0.1)

    def test_neighbor_correlation_exceeds_far_pair(self):
        """Draws respect the kernel: nearby tiles move together."""
        factor = build_cov_factor(GRID, KernelHyper(variance=1.0, length_scale=4.0))
        rng = np.random.default_rng(7)
        draws = np.stack([sample_field(factor, rng) for _ in range(3000)])
        near = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        far = np.corrcoef(draws[:, 0], draws[:, 349])[0, 1]
        assert near > 0.5
        assert abs(far) < 0.1

    def test_deterministic_given_rng_state(self):
        factor = build_cov_factor(GRID, KernelHyper())
        a = sample_field(factor, np.random.default_rng(3))
        b = sample_field(factor, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "tile_size, n_tiles", [((2.5, 2.0), 350), ((1.0, 1.0), 1750)]
    )
    def test_draw_matches_kronecker_product(self, tile_size, n_tiles):
        """A draw equals scale * (L_y kron L_x) @ z to rounding on the 350-
        and 1,750-tile grids, for the same standard normals z."""
        grid = CourtGrid(tile_size=tile_size)
        factor = build_cov_factor(grid, KernelHyper(variance=2.0, length_scale=5.0))
        draw = sample_field(factor, np.random.default_rng(11))
        z = np.random.default_rng(11).standard_normal(factor.dim)
        full = factor.scale * np.kron(factor.lower_y, factor.lower_x)
        assert draw.shape == (n_tiles,)
        np.testing.assert_allclose(draw, full @ z, rtol=0, atol=1e-12)

    def test_cov_factor_is_plain_container(self):
        f = CovFactor(lower_y=np.eye(2), lower_x=np.eye(3), scale=1.5, jitter=1e-6)
        assert f.dim == 6
        draw = sample_field(f, np.random.default_rng(0))
        np.testing.assert_allclose(
            draw, 1.5 * np.random.default_rng(0).standard_normal(6)
        )
