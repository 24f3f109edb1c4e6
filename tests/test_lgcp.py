"""Intensity fitting: Poisson tile likelihood, elliptical slice sampling
against closed-form Gaussian posteriors, posterior-mean surfaces, and
surface persistence."""

import math

import numpy as np
import pytest
from scipy.stats import poisson

from shotfactor import backend
from shotfactor.court import CourtGrid, read_labeled_csv, write_labeled_csv
from shotfactor.evaluate import heldout_loglik
from shotfactor.gp import KernelHyper, build_cov_factor
from shotfactor.lgcp import LgcpConfig, ess_step, ess_update, fit_cohort, fit_lgcp

SMALL = CourtGrid(width=5.0, length=4.0, tile_size=(1.0, 1.0))
DESK = CourtGrid(tile_size=(2.5, 2.0))


def _poisson_loglik(counts, field, bias, area):
    """Full Poisson log-likelihood as fit_lgcp splits it: the linear term
    counts . field plus the kernel with the constants fit_lgcp folds."""
    counts = np.asarray(counts, dtype=np.float64)
    scale = area * math.exp(bias)
    const = counts.sum() * (math.log(area) + bias) - backend.log_factorial(counts).sum()
    return np.dot(counts, field) + backend.poisson_field_loglik(field, scale, const)


def _poisson_oracle(counts, field, bias, area):
    """The unsplit formula sum_v [c log(area rate) - area rate - log(c!)]."""
    log_rate = field + bias
    return float(
        np.dot(counts, math.log(area) + log_rate)
        - area * np.exp(log_rate).sum()
        - backend.log_factorial(counts).sum()
    )


class TestPoissonLoglik:
    def test_single_tile_literal(self):
        """count 2 at mean 2: log(2^2 e^-2 / 2!) = log 2 - 2."""
        got = _poisson_loglik(np.array([2.0]), np.array([math.log(2.0)]), 0.0, 1.0)
        np.testing.assert_allclose(got, -1.3068528194400546, rtol=1e-14)

    def test_matches_scipy_over_random_fields(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            counts = rng.poisson(2.0, size=30)
            z = rng.normal(0, 1, size=30)
            bias, area = float(rng.normal()), float(rng.uniform(0.5, 4))
            expected = poisson.logpmf(counts, area * np.exp(z + bias)).sum()
            got = _poisson_loglik(counts, z, bias, area)
            np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_count_parameterization_agrees(self):
        """The held-out scorer's rate form, at rates exp(z + bias) and unit
        scale (train volume 1, fraction 1/2), equals the field form."""
        rng = np.random.default_rng(5)
        counts = rng.poisson(3.0, size=25)
        z = rng.normal(0, 1, size=25)
        a = _poisson_loglik(counts, z, 0.7, 2.5)
        (b,) = heldout_loglik(counts[None], np.exp(z + 0.7)[None], [1.0], 0.5, 2.5)
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_zero_counts_leave_rate_mass_only(self):
        got = _poisson_loglik(np.zeros(3), np.zeros(3), 0.0, 2.0)
        np.testing.assert_allclose(got, -6.0, rtol=1e-14)


class TestEssUpdateTargets:
    """The slice move must leave known Gaussian posteriors invariant."""

    def _chain(self, loglik, prior_chol, steps, rng, dim):
        state = np.zeros(dim)
        ll = loglik(state)
        out = np.empty((steps, dim))
        for t in range(steps):
            aux = prior_chol @ rng.standard_normal(dim)
            state, ll = ess_update(state, aux, loglik, rng, ll)
            out[t] = state
        return out

    def test_univariate_conjugate_posterior(self):
        """Prior N(0,1), likelihood N(y=1.5 | theta, 0.5^2): posterior
        N(1.2, 0.2)."""
        rng = np.random.default_rng(42)
        loglik = lambda th: -0.5 * (1.5 - th[0]) ** 2 / 0.25
        draws = self._chain(loglik, np.eye(1), 20000, rng, 1)[2000:]
        np.testing.assert_allclose(draws.mean(), 1.2, atol=0.03)
        np.testing.assert_allclose(draws.var(), 0.2, rtol=0.1)

    def test_correlated_prior_posterior_mean(self):
        """2-D correlated prior with isotropic Gaussian noise, mean via
        (K^-1 + I/s^2)^-1 y/s^2."""
        k = np.array([[1.0, 0.8], [0.8, 1.0]])
        y = np.array([1.0, -1.0])
        s2 = 0.49
        cov = np.linalg.inv(np.linalg.inv(k) + np.eye(2) / s2)
        mean = cov @ (y / s2)
        loglik = lambda th: float(-0.5 * ((y - th) ** 2).sum() / s2)
        rng = np.random.default_rng(7)
        draws = self._chain(loglik, np.linalg.cholesky(k), 20000, rng, 2)[2000:]
        np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.04)
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.05)

    def test_flat_likelihood_recovers_prior(self):
        """With nothing to explain the chain samples the prior itself."""
        rng = np.random.default_rng(11)
        draws = self._chain(lambda th: 0.0, 2.0 * np.eye(1), 20000, rng, 1)[2000:]
        np.testing.assert_allclose(draws.mean(), 0.0, atol=0.1)
        np.testing.assert_allclose(draws.var(), 4.0, rtol=0.1)

    def test_hard_constraint_truncates_prior(self):
        """Rejecting -inf proposals yields the prior restricted to the
        half-line; E[X | X>0] for standard normal is sqrt(2/pi)."""
        rng = np.random.default_rng(13)
        loglik = lambda th: 0.0 if th[0] > 0 else -np.inf
        state = np.array([0.5])
        ll = loglik(state)
        total, kept = 0.0, 0
        for _ in range(30000):
            aux = rng.standard_normal(1)
            state, ll = ess_update(state, aux, loglik, rng, ll)
            total += state[0]
            kept += 1
        assert total / kept == pytest.approx(math.sqrt(2 / math.pi), abs=0.03)


class TestEssUpdateMechanics:
    def test_linear_term_matches_full_loglik(self):
        """With ``linear`` = c and a non-linear loglik, a chain visits the
        same states as the chain whose loglik includes c . z, and each
        returned value is the full log-likelihood."""
        rng = np.random.default_rng(31)
        c = rng.poisson(3.0, size=12).astype(np.float64)
        rest = lambda z: float(-np.exp(z).sum())
        full = lambda z: float(np.dot(c, z)) + rest(z)
        chains = []
        for linear, loglik in ((c, rest), (None, full)):
            rng = np.random.default_rng(37)
            state = np.zeros(12)
            ll = loglik(state)
            states, lls = [], []
            for _ in range(300):
                aux = rng.standard_normal(12)
                state, ll = ess_update(state, aux, loglik, rng, ll, linear)
                states.append(state)
                lls.append(ll)
            chains.append((np.array(states), np.array(lls)))
        (with_linear, ll_linear), (plain, _) = chains
        np.testing.assert_array_equal(with_linear, plain)
        np.testing.assert_allclose(ll_linear, [full(z) for z in plain], rtol=1e-12)
        # without cur_loglik the move scores the start with the linear term
        state, aux = -np.ones(12), rng.standard_normal(12)
        for seed in range(5):
            moves = [
                ess_update(state, aux, rest, np.random.default_rng(seed), cur, c)
                for cur in (None, full(state))
            ]
            np.testing.assert_array_equal(moves[0][0], moves[1][0])

    def test_returned_loglik_matches_state(self):
        rng = np.random.default_rng(17)
        loglik = lambda th: float(-0.5 * (th**2).sum())
        state = rng.standard_normal(4)
        new, ll = ess_update(state, rng.standard_normal(4), loglik, rng)
        np.testing.assert_allclose(ll, loglik(new), rtol=1e-12)

    def test_proposal_lies_on_ellipse(self):
        """Accepted states satisfy new = state cos t + aux sin t for some t."""
        rng = np.random.default_rng(19)
        state = np.array([2.0, 0.0])
        aux = np.array([0.0, 2.0])
        new, _ = ess_update(state, aux, lambda th: 0.0, rng)
        np.testing.assert_allclose((new**2).sum(), 4.0, rtol=1e-10)

    def test_nonfinite_current_loglik_rejected(self):
        rng = np.random.default_rng(23)
        with pytest.raises(ValueError):
            ess_update(
                np.zeros(2),
                np.ones(2),
                lambda th: -np.inf,
                rng,
                cur_loglik=-np.inf,
            )

    def test_deterministic_given_rng(self):
        loglik = lambda th: float(-0.5 * (th**2).sum())
        a = ess_update(np.ones(3), np.full(3, 0.5), loglik, np.random.default_rng(3))
        b = ess_update(np.ones(3), np.full(3, 0.5), loglik, np.random.default_rng(3))
        np.testing.assert_array_equal(a[0], b[0])


class TestEssStep:
    def test_gp_regression_posterior_mean(self):
        """Gaussian noise around a latent field: chain mean approaches the
        analytic posterior mean K (K + s^2 I)^-1 y."""
        factor = build_cov_factor(SMALL, KernelHyper(variance=1.0, length_scale=2.0))
        full = factor.scale * np.kron(factor.lower_y, factor.lower_x)
        k = full @ full.T
        rng = np.random.default_rng(29)
        z_true = full @ rng.standard_normal(SMALL.n_tiles)
        s2 = 0.25
        y = z_true + math.sqrt(s2) * rng.standard_normal(SMALL.n_tiles)
        target = k @ np.linalg.solve(k + s2 * np.eye(SMALL.n_tiles), y)
        loglik = lambda z: float(-0.5 * ((y - z) ** 2).sum() / s2)
        state = np.zeros(SMALL.n_tiles)
        ll = loglik(state)
        acc = np.zeros(SMALL.n_tiles)
        n = 6000
        for t in range(n + 500):
            state, ll = ess_step(state, factor, loglik, rng, ll)
            if t >= 500:
                acc += state
        np.testing.assert_allclose(acc / n, target, atol=0.12)


class TestFitLgcp:
    def test_recovers_planted_rates(self):
        """High counts concentrate the posterior near the generating rates."""
        rng = np.random.default_rng(31)
        centers = SMALL.tile_centers()
        z = 0.8 * np.exp(-0.5 * ((centers - [2.0, 2.0]) ** 2).sum(axis=1) / 1.5)
        z -= z.mean()
        rates = 60.0 * np.exp(z)
        counts = rng.poisson(rates * SMALL.tile_area)
        factor = build_cov_factor(SMALL, KernelHyper(variance=1.0, length_scale=1.5))
        cfg = LgcpConfig(burn_in=300, n_samples=400)
        surface = fit_lgcp(counts, factor, SMALL, cfg, np.random.default_rng(1))
        assert surface.shape == (SMALL.n_tiles,)
        corr = np.corrcoef(surface, rates)[0, 1]
        assert corr > 0.9
        assert surface.sum() * SMALL.tile_area == pytest.approx(counts.sum(), rel=0.1)

    def test_empirical_bias_matches_total_mass(self):
        """Default bias log(M / court area) keeps volume near the count total."""
        rng = np.random.default_rng(37)
        counts = rng.poisson(40.0, size=SMALL.n_tiles)
        factor = build_cov_factor(SMALL, KernelHyper(length_scale=2.0))
        cfg = LgcpConfig(burn_in=200, n_samples=300)
        surface = fit_lgcp(counts, factor, SMALL, cfg, np.random.default_rng(2))
        assert surface.sum() * SMALL.tile_area == pytest.approx(counts.sum(), rel=0.1)

    def test_zero_total_rejected(self):
        """The bias is log(shots / area), so a row without shots is an error."""
        factor = build_cov_factor(SMALL, KernelHyper())
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="zero shots"):
            fit_lgcp(np.zeros(SMALL.n_tiles), factor, SMALL, LgcpConfig(), rng)

    def test_length_mismatch_rejected(self):
        factor = build_cov_factor(SMALL, KernelHyper())
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="length"):
            fit_lgcp(np.ones(7), factor, SMALL, LgcpConfig(), rng)

    def test_seed_determinism(self):
        rng = np.random.default_rng(41)
        counts = rng.poisson(5.0, size=SMALL.n_tiles)
        factor = build_cov_factor(SMALL, KernelHyper())
        cfg = LgcpConfig(burn_in=50, n_samples=50)
        a = fit_lgcp(counts, factor, SMALL, cfg, np.random.default_rng(9))
        b = fit_lgcp(counts, factor, SMALL, cfg, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)
        c = fit_lgcp(counts, factor, SMALL, cfg, np.random.default_rng(10))
        assert not np.array_equal(a, c)

    def test_hoisted_loglik_equals_poisson_loglik(self, monkeypatch):
        """Every likelihood fit_lgcp evaluates, with the bias, area and
        log(c!) folded into the kernel's constants once per player, plus the
        linear term counts . field equals the unsplit Poisson formula for
        the same field."""
        rng = np.random.default_rng(47)
        counts = rng.poisson(5.0, size=SMALL.n_tiles)
        factor = build_cov_factor(SMALL, KernelHyper())
        kernel = backend.poisson_field_loglik
        seen = []

        def spy(field, scale, const):
            value = kernel(field, scale, const)
            seen.append((field.copy(), value))
            return value

        monkeypatch.setattr(backend, "poisson_field_loglik", spy)
        cfg = LgcpConfig(burn_in=5, n_samples=5)
        fit_lgcp(counts, factor, SMALL, cfg, np.random.default_rng(3))
        monkeypatch.undo()
        assert len(seen) > 10
        bias = math.log(counts.sum() / (SMALL.n_tiles * SMALL.tile_area))
        for field, value in seen:
            np.testing.assert_allclose(
                np.dot(counts, field) + value,
                _poisson_oracle(counts, field, bias, SMALL.tile_area),
                rtol=1e-12,
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LgcpConfig(burn_in=-1)
        with pytest.raises(ValueError):
            LgcpConfig(n_samples=0)
        with pytest.raises(ValueError):
            LgcpConfig(thinning=0)


class TestFitCohort:
    def test_rows_match_per_stream_single_fits(self):
        """Row i of a cohort fit equals a lone fit given that row's stream."""
        rng = np.random.default_rng(47)
        counts = rng.poisson(8.0, size=(3, SMALL.n_tiles))
        factor = build_cov_factor(SMALL, KernelHyper(length_scale=2.0))
        cfg = LgcpConfig(burn_in=60, n_samples=60, seed=5)
        surfaces, volumes = fit_cohort(counts, factor, SMALL, cfg)
        assert surfaces.shape == (3, SMALL.n_tiles)
        for i in range(3):
            stream = np.random.default_rng([5, 2, i])
            lone = fit_lgcp(counts[i], factor, SMALL, cfg, stream)
            vol = lone.sum() * SMALL.tile_area
            np.testing.assert_array_equal(surfaces[i], lone / vol)
            assert volumes[i] == vol

    def test_unit_volume_rows(self):
        rng = np.random.default_rng(53)
        counts = rng.poisson(6.0, size=(2, SMALL.n_tiles))
        factor = build_cov_factor(SMALL, KernelHyper(length_scale=2.0))
        surfaces, _ = fit_cohort(
            counts, factor, SMALL, LgcpConfig(burn_in=40, n_samples=40, seed=6)
        )
        np.testing.assert_allclose(
            surfaces.sum(axis=1) * SMALL.tile_area, 1.0, rtol=1e-12
        )


class TestSurfaceCsv:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(59)
        matrix = rng.uniform(0, 3, size=(4, DESK.n_tiles))
        ids = ["p0", "p1", "p2", "global"]
        path = tmp_path / "surfaces.csv"
        write_labeled_csv(path, ids, matrix, DESK)
        back_ids, back, grid = read_labeled_csv(path)
        assert back_ids == ids
        assert grid == DESK
        np.testing.assert_array_equal(back, matrix)

    def test_anisotropic_grid_header_survives(self, tmp_path):
        path = tmp_path / "s.csv"
        write_labeled_csv(path, ["a"], np.ones((1, DESK.n_tiles)), DESK)
        _, _, grid = read_labeled_csv(path)
        assert grid.tile_size == (2.5, 2.0)
