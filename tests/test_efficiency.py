"""Tests for the hierarchical shot-outcome model and its Gibbs sampler."""

import numpy as np
import pytest
from scipy.special import expit

from shotfactor import backend
from shotfactor.efficiency import (
    AdjustedLoadings,
    EfficiencyConfig,
    EfficiencyModel,
    adjust_weights,
    efficiency_surface,
    fit_efficiency,
    gibbs_beta_step,
    gibbs_sigma_update,
    predict_fg_pct,
    sample_shot_types,
    shot_type_posterior,
)


def _split_bases(v=20):
    """Two disjoint uniform bases covering the first and second half."""
    bases = np.zeros((2, v))
    bases[0, : v // 2] = 1.0 / (v // 2)
    bases[1, v // 2 :] = 1.0 / (v // 2)
    return bases


def _simulate_cohort(rng, budgets, weights, beta_star, bases):
    """Draw shots from the loading mixture and outcomes from planted logits."""
    v = bases.shape[1]
    half = v // 2
    players, tiles, made = [], [], []
    for i, budget in enumerate(budgets):
        probs = (weights[i][:, None] * bases).sum(axis=0)
        probs = probs / probs.sum()
        t = rng.choice(v, size=budget, p=probs)
        k = (t >= half).astype(int)
        y = rng.random(budget) < expit(beta_star[i, k])
        players.extend([i] * budget)
        tiles.extend(t.tolist())
        made.extend(y.astype(int).tolist())
    return np.array(players), np.array(tiles), np.array(made)


class TestAdjustWeights:
    def test_unit_sum_bases_leave_weights_unchanged(self):
        """Bases that already sum to 1 make the adjustment a no-op."""
        bases = _split_bases()
        weights = np.array([[2.0, 3.0], [0.5, 1.0]])
        adj = adjust_weights(weights, bases)
        np.testing.assert_allclose(adj.weights, weights)
        np.testing.assert_allclose(adj.bases, bases)

    def test_mass_three_basis_scales_weight_by_three(self):
        """A basis of total mass 3 under weight 2 gives adjusted weight 6."""
        bases = np.full((1, 6), 0.5)
        adj = adjust_weights(np.array([[2.0]]), bases)
        np.testing.assert_allclose(adj.weights, [[6.0]])
        np.testing.assert_allclose(adj.bases.sum(axis=1), [1.0])

    def test_reconstruction_invariance(self):
        """Adjusted loadings reproduce every W @ B entry within 1e-9."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            weights = rng.uniform(0.0, 2.0, size=(5, 3))
            bases = rng.uniform(0.1, 1.0, size=(3, 12))
            adj = adjust_weights(weights, bases)
            np.testing.assert_allclose(
                adj.weights @ adj.bases, weights @ bases, atol=1e-9
            )

    def test_zero_mass_basis_dropped_with_warning(self):
        """A basis with no mass cannot carry shots and is removed."""
        bases = np.zeros((2, 8))
        bases[0, :] = 0.125
        weights = np.array([[1.0, 5.0], [2.0, 7.0]])
        with pytest.warns(UserWarning, match="zero-mass"):
            adj = adjust_weights(weights, bases)
        assert adj.bases.shape == (1, 8)
        np.testing.assert_allclose(adj.weights, [[1.0], [2.0]])

    def test_loadings_validate_row_sums(self):
        """AdjustedLoadings rejects bases whose rows do not sum to 1."""
        with pytest.raises(ValueError):
            AdjustedLoadings(np.ones((2, 1)), np.full((1, 4), 0.3))
        with pytest.raises(ValueError):
            AdjustedLoadings(-np.ones((2, 2)), _split_bases())


class TestShotTypePosterior:
    def test_single_type_is_certain(self):
        """With one basis every shot is of that type."""
        bases = np.full((1, 10), 0.1)
        probs = shot_type_posterior(3, np.array([4.0]), bases)
        np.testing.assert_allclose(probs, [1.0])

    def test_excluded_component_gets_zero(self):
        """A basis with no density at the tile has posterior probability 0."""
        bases = _split_bases()
        probs = shot_type_posterior(2, np.array([1.5, 2.5]), bases)
        np.testing.assert_allclose(probs, [1.0, 0.0])

    def test_matches_brute_force_normalization(self):
        """The posterior equals w*B at the tile divided by its sum."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            bases = rng.uniform(0.01, 1.0, size=(3, 15))
            bases /= bases.sum(axis=1, keepdims=True)
            weights = rng.uniform(0.1, 3.0, size=3)
            tile = int(rng.integers(15))
            raw = np.array(
                [weights[k] * bases[k, tile] for k in range(3)]
            )
            probs = shot_type_posterior(tile, weights, bases)
            np.testing.assert_allclose(probs, raw / raw.sum(), atol=1e-12)
            np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)

    def test_impossible_tile_falls_back_to_uniform(self):
        """A tile outside every basis yields a uniform posterior; a tile
        inside them keeps the weights' proportions."""
        bases = np.zeros((2, 6))
        bases[0, :3] = 1.0 / 3.0
        bases[1, :3] = 1.0 / 3.0
        probs = shot_type_posterior(5, np.array([1.0, 2.0]), bases)
        np.testing.assert_allclose(probs, [0.5, 0.5])
        probs = shot_type_posterior(1, np.array([1.0, 2.0]), bases)
        np.testing.assert_allclose(probs, [1 / 3, 2 / 3])


class TestPredictFgPct:
    def test_zero_logit_gives_half(self):
        """With one type at logit 0 the make probability is one half."""
        bases = np.full((1, 10), 0.1)
        p = predict_fg_pct(0, np.array([1.0]), bases, np.array([0.0]))
        assert p == pytest.approx(0.5)

    def test_point_mass_type_returns_its_rate(self):
        """A tile that pins the type returns that type's make probability."""
        bases = _split_bases()
        p = predict_fg_pct(1, np.array([1.0, 1.0]), bases, np.array([2.0, -5.0]))
        assert p == pytest.approx(0.8807970779778823, abs=1e-12)

    def test_bounded_by_extreme_type_rates(self):
        """The prediction is a convex combination of the per-type rates."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            bases = rng.uniform(0.01, 1.0, size=(4, 12))
            bases /= bases.sum(axis=1, keepdims=True)
            weights = rng.uniform(0.1, 2.0, size=4)
            logits = rng.normal(0.0, 2.0, size=4)
            tile = int(rng.integers(12))
            p = predict_fg_pct(tile, weights, bases, logits)
            rates = expit(logits)
            assert rates.min() - 1e-12 <= p <= rates.max() + 1e-12
            assert 0.0 < p < 1.0

    def test_equals_brute_force_mixture_sum(self):
        """The prediction equals the explicit sum over types within 1e-12."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            bases = rng.uniform(0.01, 1.0, size=(3, 9))
            bases /= bases.sum(axis=1, keepdims=True)
            weights = rng.uniform(0.1, 2.0, size=3)
            logits = rng.normal(0.0, 1.5, size=3)
            tile = int(rng.integers(9))
            probs = shot_type_posterior(tile, weights, bases)
            brute = sum(
                probs[k] * expit(logits[k]) for k in range(3)
            )
            p = predict_fg_pct(tile, weights, bases, logits)
            np.testing.assert_allclose(p, brute, atol=1e-12)


class TestGibbsSigmaUpdate:
    def test_zero_deviations_target_prior_rate(self):
        """All logits equal to the mean leaves Inverse-Gamma(a + N/2, b)."""
        rng = np.random.default_rng(42)
        a, b, n = 2.0, 3.0, 8
        draws = np.array(
            [
                gibbs_sigma_update(np.full(n, 1.7), 1.7, a, b, rng)
                for _ in range(100000)
            ]
        )
        analytic = b / (a + n / 2.0 - 1.0)
        assert abs(draws.mean() - analytic) / analytic < 0.02

    def test_unit_deviations_match_analytic_mean(self):
        """Deviations {1,1,1} with a=b=0.1 give Inverse-Gamma(1.6, 1.6)."""
        rng = np.random.default_rng(3)
        draws = np.array(
            [
                gibbs_sigma_update(np.ones(3), 0.0, 0.1, 0.1, rng)
                for _ in range(100000)
            ]
        )
        analytic = 1.6 / 0.6
        assert abs(draws.mean() - analytic) / analytic < 0.02

    def test_matches_grid_integration_on_two_player_toy(self):
        """Monte Carlo mean agrees with numerical posterior integration."""
        a, b = 3.0, 2.0
        devs = np.array([0.3, -0.5])
        grid = np.linspace(1e-4, 60.0, 400001)
        logdens = -(a + devs.size / 2 + 1) * np.log(grid)
        logdens -= (b + 0.5 * (devs**2).sum()) / grid
        wgt = np.exp(logdens - logdens.max())
        wgt /= wgt.sum()
        grid_mean = float(grid @ wgt)
        rng = np.random.default_rng(8)
        draws = np.array(
            [gibbs_sigma_update(devs, 0.0, a, b, rng) for _ in range(100000)]
        )
        assert abs(draws.mean() - grid_mean) / grid_mean < 0.02

    def test_draws_strictly_positive(self):
        """Variance draws are always positive regardless of deviations."""
        rng = np.random.default_rng(42)
        for _ in range(200):
            devs = rng.normal(0.0, 2.0, size=int(rng.integers(1, 10)))
            assert gibbs_sigma_update(devs, 0.0, 0.1, 0.1, rng) > 0.0


    @pytest.mark.parametrize("k", [1, 4, 12])
    def test_matrix_call_equals_column_calls(self, k):
        """One N x K call gives the K one-column draws bit for bit, and
        leaves the stream where the K column calls leave it."""
        beta = np.random.default_rng(k).normal(0.0, 1.0, size=(37, k))
        beta0 = np.linspace(-0.5, 0.5, k)
        rng_matrix, rng_columns = np.random.default_rng(9), np.random.default_rng(9)
        drawn = gibbs_sigma_update(beta, beta0, 0.1, 0.1, rng_matrix)
        by_column = [
            gibbs_sigma_update(beta[:, j], beta0[j], 0.1, 0.1, rng_columns)
            for j in range(k)
        ]
        assert all(isinstance(d, float) for d in by_column)
        assert drawn.shape == (k,)
        assert drawn.tolist() == by_column
        assert rng_matrix.random() == rng_columns.random()


class TestGibbsBetaStep:
    def test_no_observations_targets_prior(self):
        """Without data the chain samples the prior: mean of the global
        logit stays within 4 batch-mean standard errors of zero."""
        rng = np.random.default_rng(5)
        n, k = 5, 1
        beta0 = np.zeros(k)
        beta = np.zeros((n, k))
        sigma2 = np.array([0.25])
        makes = np.zeros((n, k))
        attempts = np.zeros((n, k))
        draws = np.empty(8000)
        for t in range(8000):
            beta0, beta, _ = gibbs_beta_step(
                beta0, beta, sigma2, makes, attempts, rng
            )
            draws[t] = beta0[0]
        batches = draws.reshape(20, 400).mean(axis=1)
        mcse = batches.std(ddof=1) / np.sqrt(20)
        assert abs(draws.mean()) < 4.0 * mcse
        assert abs(draws.std() - 10.0) < 1.0

    def test_single_cell_matches_grid_posterior(self):
        """70 makes of 100 with a diffuse prior: the chain's mean make
        probability matches 1-D grid integration within 0.01."""
        grid = np.linspace(-12.0, 12.0, 20001)
        prior_sd = np.sqrt(200.0)
        logpost = (
            -0.5 * (grid / prior_sd) ** 2
            + 70 * np.log(expit(grid))
            + 30 * np.log(expit(-grid))
        )
        wgt = np.exp(logpost - logpost.max())
        wgt /= wgt.sum()
        oracle = float(expit(grid) @ wgt)
        rng = np.random.default_rng(6)
        beta0 = np.zeros(1)
        beta = np.zeros((1, 1))
        sigma2 = np.array([100.0])
        makes = np.array([[70.0]])
        attempts = np.array([[100.0]])
        acc = []
        for t in range(12000):
            beta0, beta, _ = gibbs_beta_step(
                beta0, beta, sigma2, makes, attempts, rng
            )
            if t >= 1000:
                acc.append(expit(beta[0, 0]))
        assert abs(np.mean(acc) - oracle) < 0.01

    def test_returned_loglik_matches_state(self):
        """The reported log-likelihood, the slice move's linear term
        makes . logits plus the kernel, is the binomial log-likelihood of the
        returned logits."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            n, k = 4, 2
            beta0 = rng.normal(size=k)
            beta = rng.normal(size=(n, k))
            sigma2 = rng.uniform(0.2, 2.0, size=k)
            attempts = rng.integers(0, 30, size=(n, k)).astype(float)
            makes = np.floor(attempts * rng.random((n, k)))
            new0, new, loglik = gibbs_beta_step(
                beta0, beta, sigma2, makes, attempts, rng
            )
            # log sigma(x) = -log(1+e^-x); log(1-sigma(x)) = -log(1+e^x)
            direct = -(
                makes * np.logaddexp(0.0, -new)
                + (attempts - makes) * np.logaddexp(0.0, new)
            ).sum()
            np.testing.assert_allclose(loglik, direct, rtol=1e-12)

    def test_deterministic_for_fixed_seed(self):
        """Identical generators produce identical updates."""
        beta0 = np.array([0.2])
        beta = np.array([[0.4], [-0.1]])
        sigma2 = np.array([0.5])
        makes = np.array([[3.0], [1.0]])
        attempts = np.array([[10.0], [4.0]])
        out1 = gibbs_beta_step(
            beta0, beta, sigma2, makes, attempts, np.random.default_rng(9)
        )
        out2 = gibbs_beta_step(
            beta0, beta, sigma2, makes, attempts, np.random.default_rng(9)
        )
        np.testing.assert_array_equal(out1[0], out2[0])
        np.testing.assert_array_equal(out1[1], out2[1])


def _type_table(loadings, players, tiles):
    """The cumulative type weights and sums that fit_efficiency draws from."""
    probs, totals = backend.type_weights(
        loadings.weights, loadings.bases, np.asarray(players), np.asarray(tiles)
    )
    return np.cumsum(probs, axis=1), totals


class TestSampleShotTypes:
    def test_single_basis_assigns_type_zero(self):
        """With K=1 every shot gets the only type."""
        bases = np.full((1, 10), 0.1)
        loadings = AdjustedLoadings(np.array([[2.0], [1.0]]), bases)
        cum, totals = _type_table(loadings, [0, 1, 0, 1], [0, 3, 7, 9])
        types = sample_shot_types(cum, totals, np.random.default_rng(0))
        np.testing.assert_array_equal(types, np.zeros(4, dtype=int))

    def test_deterministic_posterior_always_picks_its_type(self):
        """Disjoint bases make the type a function of the tile."""
        bases = _split_bases()
        loadings = AdjustedLoadings(np.array([[1.0, 1.0]]), bases)
        tiles = np.arange(40) % 20
        cum, totals = _type_table(loadings, np.zeros(40, dtype=int), tiles)
        types = sample_shot_types(cum, totals, np.random.default_rng(1))
        np.testing.assert_array_equal(types, (tiles >= 10).astype(int))

    def test_frequencies_match_posterior(self):
        """Empirical type frequencies agree with the posterior vector
        within 3 Monte Carlo standard errors."""
        rng = np.random.default_rng(42)
        bases = rng.uniform(0.05, 1.0, size=(3, 8))
        bases /= bases.sum(axis=1, keepdims=True)
        weights = np.array([[1.2, 0.7, 2.0]])
        loadings = AdjustedLoadings(weights, bases)
        tile = 5
        target = shot_type_posterior(tile, weights[0], bases)
        m = 10000
        cum, totals = _type_table(loadings, np.zeros(m, dtype=int), np.full(m, tile))
        types = sample_shot_types(cum, totals, rng)
        freq = np.bincount(types, minlength=3) / m
        mc_se = np.sqrt(target * (1.0 - target) / m)
        assert np.all(np.abs(freq - target) <= 3.0 * mc_se)


class TestFitEfficiency:
    def test_recovers_planted_logits(self):
        """Posterior mean make probabilities land within 0.05 of the
        planted per-basis accuracy for heavily sampled players."""
        bases = _split_bases()
        for ds_seed in (0, 1, 2):
            rng = np.random.default_rng(ds_seed)
            n = 8
            weights = rng.uniform(0.8, 1.2, size=(n, 2))
            beta_star = np.array([0.4, -0.3]) + 0.25 * rng.normal(size=(n, 2))
            players, tiles, made = _simulate_cohort(
                rng, [2000] * n, weights, beta_star, bases
            )
            fit = fit_efficiency(
                players,
                tiles,
                made,
                AdjustedLoadings(weights, bases),
                EfficiencyConfig(sweeps=600, burn_in=150, seed=1),
            )
            err = np.abs(fit.prob - expit(beta_star)).max()
            assert err < 0.05, f"dataset seed {ds_seed}: max error {err:.4f}"

    def test_fixed_seed_reproducible(self):
        """Two fits with the same config produce identical posteriors."""
        bases = _split_bases()
        rng = np.random.default_rng(4)
        weights = rng.uniform(0.8, 1.2, size=(3, 2))
        beta_star = 0.3 * rng.normal(size=(3, 2))
        players, tiles, made = _simulate_cohort(
            rng, [120, 60, 200], weights, beta_star, bases
        )
        config = EfficiencyConfig(sweeps=80, burn_in=20, seed=11)
        loadings = AdjustedLoadings(weights, bases)
        fit1 = fit_efficiency(players, tiles, made, loadings, config)
        fit2 = fit_efficiency(players, tiles, made, loadings, config)
        np.testing.assert_array_equal(fit1.model.beta, fit2.model.beta)
        np.testing.assert_array_equal(fit1.sigma2_trace, fit2.sigma2_trace)

    def test_variance_traces_strictly_positive(self):
        """Every per-sweep variance draw stays above zero."""
        bases = _split_bases()
        rng = np.random.default_rng(2)
        weights = rng.uniform(0.8, 1.2, size=(4, 2))
        beta_star = 0.4 * rng.normal(size=(4, 2))
        players, tiles, made = _simulate_cohort(
            rng, [100] * 4, weights, beta_star, bases
        )
        fit = fit_efficiency(
            players,
            tiles,
            made,
            AdjustedLoadings(weights, bases),
            EfficiencyConfig(sweeps=120, burn_in=30, seed=5),
        )
        assert np.all(fit.sigma2_trace > 0.0)
        assert fit.sigma2_trace.shape == (120, 2)
        assert fit.beta0_trace.shape == (120, 2)

    def test_empty_data_rejected(self):
        """Fitting with no shots raises instead of returning something."""
        loadings = AdjustedLoadings(np.ones((2, 2)), _split_bases())
        with pytest.raises(ValueError, match="no shots"):
            fit_efficiency(
                np.array([], dtype=int),
                np.array([], dtype=int),
                np.array([], dtype=int),
                loadings,
            )

    def test_unknown_player_rejected(self):
        """A shot by a player without loadings is an error."""
        loadings = AdjustedLoadings(np.ones((2, 2)), _split_bases())
        with pytest.raises(ValueError, match="player"):
            fit_efficiency(
                np.array([5]), np.array([0]), np.array([1]), loadings
            )

    def test_config_validation(self):
        """Sweep and burn-in bounds are enforced."""
        with pytest.raises(ValueError):
            EfficiencyConfig(sweeps=0)
        with pytest.raises(ValueError):
            EfficiencyConfig(sweeps=10, burn_in=10)

    def test_golden_posterior_means(self):
        """A small fixed run, with shots on a tile no basis reaches,
        reproduces logits recorded from an earlier implementation."""
        rng = np.random.default_rng(7)
        bases = rng.uniform(0.0, 1.0, size=(3, 12))
        bases[:, 11] = 0.0
        bases[0, :4] = 0.0
        bases /= bases.sum(axis=1, keepdims=True)
        weights = rng.uniform(0.5, 1.5, size=(3, 3))
        players = rng.integers(0, 3, size=150)
        tiles = rng.integers(0, 12, size=150)
        made = rng.integers(0, 2, size=150)
        assert (tiles == 11).sum() == 16
        fit = fit_efficiency(
            players,
            tiles,
            made,
            AdjustedLoadings(weights, bases),
            EfficiencyConfig(sweeps=30, burn_in=10, seed=2),
        )
        np.testing.assert_allclose(
            fit.model.beta0,
            [-0.05180095899166852, -0.129523503570569, 0.16541199822252256],
            rtol=1e-12,
            atol=0.0,
        )
        np.testing.assert_allclose(
            fit.model.beta,
            [
                [0.31451680486379796, -0.28488229312292934, -0.1084818907038557],
                [-0.6398555963110046, -0.1933300825734307, -0.04566886046430831],
                [0.1054232301842137, -0.08599459293058213, 0.508896710012235],
            ],
            rtol=1e-12,
            atol=0.0,
        )


class TestShrinkage:
    def test_no_data_player_sits_nearer_global(self):
        """A player with no shots of a type deviates less from the global
        mean than a heavy shooter whose rate disagrees with it."""
        bases = _split_bases()
        rng = np.random.default_rng(7)
        weights = np.array([[1.0, 1.0], [1.0, 0.0]])
        players, tiles, made = [], [], []
        for i, rates in enumerate([(0.62, 0.35), (0.62, 0.5)]):
            probs = (weights[i][:, None] * bases).sum(axis=0)
            probs = probs / probs.sum()
            t = rng.choice(20, size=400, p=probs)
            k = (t >= 10).astype(int)
            y = rng.random(400) < np.array(rates)[k]
            players.extend([i] * 400)
            tiles.extend(t.tolist())
            made.extend(y.astype(int).tolist())
        fit = fit_efficiency(
            np.array(players),
            np.array(tiles),
            np.array(made),
            AdjustedLoadings(weights, bases),
            EfficiencyConfig(sweeps=2000, burn_in=500, seed=7),
        )
        dev = np.abs(fit.model.beta - fit.model.beta0)
        assert dev[1, 1] < dev[0, 1]

    def test_deviation_rank_correlates_with_shot_count(self):
        """Across a tiered cohort, posterior deviations from the global
        mean increase with per-basis shot counts (positive rank
        correlation), and heavily sampled players are recovered within
        0.05 absolute accuracy."""
        from scipy.stats import spearmanr

        bases = _split_bases()
        rng = np.random.default_rng(1)
        n = 30
        tiers = np.array([0, 1, 2] * (n // 3))
        budgets = np.where(
            tiers == 0,
            rng.integers(5, 50, n),
            np.where(
                tiers == 1,
                rng.integers(40, 180, n),
                rng.integers(2500, 3500, n),
            ),
        )
        weights = rng.uniform(0.8, 1.2, size=(n, 2))
        beta_star = np.array([0.1, -0.2]) + 0.8 * rng.choice(
            [-1.0, 1.0], size=(n, 2)
        )
        players, tiles, made = _simulate_cohort(
            rng, budgets, weights, beta_star, bases
        )
        fit = fit_efficiency(
            players,
            tiles,
            made,
            AdjustedLoadings(weights, bases),
            EfficiencyConfig(sweeps=2000, burn_in=500, seed=4),
        )
        k = (tiles >= 10).astype(int)
        counts = np.zeros((n, 2))
        for i in range(n):
            for j in range(2):
                counts[i, j] = ((players == i) & (k == j)).sum()
        dev = np.abs(fit.model.beta - fit.model.beta0)
        rho = spearmanr(counts.ravel(), dev.ravel()).statistic
        assert rho > 0.1
        dense = budgets >= 200
        err = np.abs(fit.prob - expit(beta_star))[dense].max()
        assert err < 0.05

    def test_more_makes_raise_posterior_rate(self):
        """On a single-basis toy, raising makes at fixed attempts raises
        the posterior mean make probability."""
        v = 20
        bases = np.full((1, v), 1.0 / v)
        loadings = AdjustedLoadings(np.array([[1.0]]), bases)
        previous = None
        for makes in (10, 20, 30):
            players = np.zeros(40, dtype=int)
            tiles = np.arange(40) % v
            made = (np.arange(40) < makes).astype(int)
            fit = fit_efficiency(
                players,
                tiles,
                made,
                loadings,
                EfficiencyConfig(sweeps=2000, burn_in=500, seed=2),
            )
            p = fit.prob[0, 0]
            if previous is not None:
                assert p > previous
            previous = p


class TestDeadTile:
    def test_uniform_fallback_in_every_user(self, monkeypatch):
        """A tile no basis reaches gets the uniform type posterior in the
        Gibbs draws, the mixture surface and shot_type_posterior; the Gibbs
        table is built once per fit."""
        bases = np.zeros((2, 6))
        bases[:, :5] = 0.2
        loadings = AdjustedLoadings(np.array([[1.0, 3.0]]), bases)
        np.testing.assert_array_equal(
            shot_type_posterior(5, loadings.weights[0], bases), [0.5, 0.5]
        )
        model = EfficiencyModel(beta0=[1.0, -2.0], sigma2=[1, 1], beta=[[2.0, -1.0]])
        surface = efficiency_surface(loadings, model)[1]
        np.testing.assert_allclose(surface[5], expit([2.0, -1.0]).mean(), rtol=1e-15)

        seen, built = [], []
        draw, weigh = backend.draw_type_indices, backend.type_weights

        def spy_draw(cum, totals, uniforms):
            seen.append((cum.copy(), totals.copy()))
            return draw(cum, totals, uniforms)

        def spy_weigh(*args):
            built.append(args)
            return weigh(*args)

        monkeypatch.setattr(backend, "draw_type_indices", spy_draw)
        monkeypatch.setattr(backend, "type_weights", spy_weigh)
        tiles = np.array([5, 0, 5, 3])
        fit_efficiency(
            np.zeros(4, dtype=int),
            tiles,
            np.array([1, 0, 0, 1]),
            loadings,
            EfficiencyConfig(sweeps=3, burn_in=1, seed=0),
        )
        assert len(built) == 1 and len(seen) == 4
        for cum, totals in seen:
            np.testing.assert_array_equal(cum[tiles == 5], [[1.0, 2.0]] * 2)
            np.testing.assert_array_equal(totals[tiles == 5], [2.0, 2.0])
            np.testing.assert_allclose(cum[tiles == 0], [[0.2, 0.8]], rtol=1e-15)


class TestEfficiencySurface:
    def test_zero_global_logits_give_half_everywhere(self):
        """The global surface with all-zero global logits is flat 0.5."""
        bases = _split_bases()
        loadings = AdjustedLoadings(np.ones((3, 2)), bases)
        model = EfficiencyModel(
            beta0=np.zeros(2), sigma2=np.ones(2), beta=np.zeros((3, 2))
        )
        surface = efficiency_surface(loadings, model)[0]
        np.testing.assert_allclose(surface, np.full(20, 0.5), atol=1e-12)

    def test_player_matching_global_reproduces_global_surface(self):
        """A player whose logits equal the global means matches the global
        surface when their weights match the cohort average."""
        bases = _split_bases()
        loadings = AdjustedLoadings(np.full((4, 2), 1.3), bases)
        beta0 = np.array([0.7, -0.4])
        beta = np.tile(beta0, (4, 1))
        model = EfficiencyModel(beta0=beta0, sigma2=np.ones(2), beta=beta)
        surfaces = efficiency_surface(loadings, model)
        assert surfaces.shape == (5, 20)
        np.testing.assert_allclose(surfaces[3], surfaces[0], atol=1e-12)  # player 2

    def test_point_mass_tile_returns_type_rate(self):
        """Where one basis owns the tile the surface equals its rate."""
        bases = _split_bases()
        loadings = AdjustedLoadings(np.array([[1.0, 1.0]]), bases)
        beta = np.array([[1.5, -0.8]])
        model = EfficiencyModel(
            beta0=np.zeros(2), sigma2=np.ones(2), beta=beta
        )
        surface = efficiency_surface(loadings, model)[1]  # player 0
        np.testing.assert_allclose(surface[:10], expit(1.5), atol=1e-12)
        np.testing.assert_allclose(surface[10:], expit(-0.8), atol=1e-12)

    def test_values_strictly_inside_unit_interval(self):
        """Every tile probability lies in (0, 1)."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            bases = rng.uniform(0.01, 1.0, size=(3, 16))
            bases /= bases.sum(axis=1, keepdims=True)
            loadings = AdjustedLoadings(
                rng.uniform(0.1, 2.0, size=(5, 3)), bases
            )
            model = EfficiencyModel(
                beta0=rng.normal(size=3),
                sigma2=np.ones(3),
                beta=rng.normal(size=(5, 3)),
            )
            surfaces = efficiency_surface(loadings, model)
            assert np.all(surfaces > 0.0) and np.all(surfaces < 1.0)
