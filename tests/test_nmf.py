"""Factorization losses, multiplicative updates, planted-model recovery,
the PCA baseline, and the factorize stage's files."""

import json
import math

import numpy as np
import pytest
from scipy.stats import entropy

from shotfactor.court import CourtGrid, read_labeled_csv, write_labeled_csv
from shotfactor.nmf import (
    CHECK_EVERY,
    EPS_FLOOR,
    NmfConfig,
    fit_nmf,
    fit_pca,
    frobenius_loss,
    kl_loss,
    nmf_step_frobenius,
    nmf_step_kl,
    pca_reconstruct,
)
from shotfactor.pipeline import stage_factorize


def _cos(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def _greedy_match(b_hat, b_star):
    """Greedy max-cosine assignment of fitted bases to planted ones."""
    sims = np.array([[_cos(h, s) for s in b_star] for h in b_hat])
    chosen, used_h, used_s = [], set(), set()
    while len(chosen) < len(b_star):
        best = max(
            (
                (sims[i, j], i, j)
                for i in range(len(b_hat))
                if i not in used_h
                for j in range(len(b_star))
                if j not in used_s
            ),
        )
        chosen.append(best[0])
        used_h.add(best[1])
        used_s.add(best[2])
    return chosen


def _disjoint_bumps(k=4, width=25):
    """k bases with non-overlapping support, each a discrete bump."""
    bases = np.zeros((k, k * width))
    x = np.arange(width)
    for i in range(k):
        bases[i, i * width : (i + 1) * width] = np.exp(
            -0.5 * (x - width // 2) ** 2 / 25.0
        )
        bases[i] /= bases[i].sum()
    return bases


def _positive_factors(rng, n=10, v=20, k=3):
    return rng.uniform(0.2, 1.0, size=(n, k)), rng.uniform(0.2, 1.0, size=(k, v))


class TestFrobeniusLoss:
    def test_identity_is_zero(self):
        x = np.arange(6.0).reshape(2, 3)
        assert frobenius_loss(x, x) == 0.0

    def test_literal_value(self):
        assert frobenius_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])) == 2.0

    def test_symmetric(self):
        rng = np.random.default_rng(42)
        x, y = rng.uniform(size=(2, 4, 5))
        assert frobenius_loss(x, y) == frobenius_loss(y, x)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            frobenius_loss(np.ones((2, 2)), np.ones((2, 3)))


class TestKlLoss:
    def test_identity_is_zero(self):
        x = np.arange(1.0, 7.0).reshape(2, 3)
        assert kl_loss(x, x) == 0.0

    def test_literal_value(self):
        """sum x log(x/y) - x + y at x=1, y=2 is 1 - log 2."""
        got = kl_loss(np.array([[1.0]]), np.array([[2.0]]))
        np.testing.assert_allclose(got, 0.3068528194400547, rtol=1e-14)

    def test_unit_total_reduces_to_kl_divergence(self):
        """When both arguments sum to 1 the -x + y terms cancel exactly."""
        rng = np.random.default_rng(3)
        x = rng.uniform(0.1, 1.0, size=(4, 6))
        y = rng.uniform(0.1, 1.0, size=(4, 6))
        x /= x.sum()
        y /= y.sum()
        got = kl_loss(x, y)
        np.testing.assert_allclose(got, entropy(x.ravel(), y.ravel()), rtol=1e-10)

    def test_unmatched_support_is_infinite(self):
        assert kl_loss(np.array([[1.0]]), np.array([[0.0]])) == np.inf

    def test_zero_times_log_zero_is_zero(self):
        """A zero in x contributes only the +y mass term."""
        got = kl_loss(np.array([[0.0]]), np.array([[2.0]]))
        assert got == 2.0

    @staticmethod
    def _masked_kl(x, y):
        """The loss as a boolean-mask gather and scatter: the reference."""
        pos = x > 0
        if np.any(y[pos] <= 0):
            return float("inf")
        ratio = np.zeros_like(x)
        ratio[pos] = x[pos] * np.log(x[pos] / y[pos])
        return float(ratio.sum() - x.sum() + y.sum())

    @pytest.mark.parametrize("zeros", [0.0, 0.3], ids=["all_positive", "zeros_in_x"])
    def test_bit_equal_to_masked_formula(self, zeros):
        rng = np.random.default_rng(17)
        for shape in [(1, 1), (7, 13), (60, 350), (12, 1750)]:
            x = rng.gamma(0.5, 1.0, size=shape)
            x[rng.random(shape) < zeros] = 0.0
            y = rng.gamma(0.5, 1.0, size=shape)
            # y may be zero wherever x is
            y[x == 0] *= rng.random(shape)[x == 0] < 0.5
            assert kl_loss(x, y) == self._masked_kl(x, y)

    def test_nonpositive_model_is_inf_like_reference(self):
        rng = np.random.default_rng(19)
        x = rng.uniform(0.1, 1.0, size=(5, 8))
        for bad in (0.0, -1e-3):
            y = rng.uniform(0.1, 1.0, size=(5, 8))
            y[2, 3] = bad
            assert kl_loss(x, y) == self._masked_kl(x, y) == np.inf

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kl_loss(np.ones((1, 2)), np.ones((2, 1)))


class TestFrobeniusStep:
    def test_matches_handwritten_update(self):
        """One step equals W (Λ Bᵀ)/(W B Bᵀ + ε), then B with the new W."""
        rng = np.random.default_rng(7)
        w, b = _positive_factors(rng)
        target = rng.uniform(0.1, 2.0, size=(10, 20))
        eps = 1e-12
        w2 = w * (target @ b.T) / (w @ b @ b.T + eps)
        b2 = b * (w2.T @ target) / (w2.T @ w2 @ b + eps)
        got_w, got_b = nmf_step_frobenius(w, b, target)
        np.testing.assert_allclose(got_w, w2, rtol=1e-12)
        np.testing.assert_allclose(got_b, b2, rtol=1e-12)

    def test_fixed_point_when_exact(self):
        rng = np.random.default_rng(11)
        w, b = _positive_factors(rng)
        target = w @ b
        before = frobenius_loss(target, w @ b)
        w2, b2 = nmf_step_frobenius(w, b, target)
        after = frobenius_loss(target, w2 @ b2)
        assert after <= before + 1e-9

    def test_loss_nonincreasing_over_random_trials(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            w, b = _positive_factors(rng)
            target = rng.uniform(0.0, 2.0, size=(10, 20))
            before = frobenius_loss(target, w @ b)
            w, b = nmf_step_frobenius(w, b, target)
            after = frobenius_loss(target, w @ b)
            assert after <= before + 1e-9
            assert np.all(w >= 0) and np.all(b >= 0)

    def test_scalar_iteration_converges_to_target(self):
        """With K = N = V = 1 the iteration contracts onto Λ itself."""
        w, b = np.array([[0.5]]), np.array([[0.5]])
        target = np.array([[0.7]])
        for _ in range(10):
            w, b = nmf_step_frobenius(w, b, target)
        np.testing.assert_allclose(w @ b, target, rtol=1e-6)

    def test_entries_floored_at_eps(self):
        """Zero-heavy data cannot drag factor entries to absolute zero."""
        w, b = np.full((2, 2), 0.5), np.full((2, 3), 0.5)
        target = np.zeros((2, 3))
        for _ in range(50):
            w, b = nmf_step_frobenius(w, b, target)
        assert np.all(w >= EPS_FLOOR) and np.all(b >= EPS_FLOOR)


class TestKlStep:
    def test_matches_handwritten_update(self):
        """W'_{nk} = W_{nk} [Σ_v B_{kv} Λ_{nv}/(WB)_{nv}]/[Σ_v B_{kv} + ε],
        then the symmetric B update with W'."""
        rng = np.random.default_rng(17)
        w, b = _positive_factors(rng)
        target = rng.uniform(0.1, 2.0, size=(10, 20))
        eps = 1e-12
        w2 = w * ((target / (w @ b)) @ b.T) / (b.sum(axis=1) + eps)
        b2 = b * (w2.T @ (target / (w2 @ b))) / (w2.sum(axis=0)[:, None] + eps)
        got_w, got_b = nmf_step_kl(w, b, target)
        np.testing.assert_allclose(got_w, w2, rtol=1e-12)
        np.testing.assert_allclose(got_b, b2, rtol=1e-12)

    def test_fixed_point_when_exact(self):
        rng = np.random.default_rng(19)
        w, b = _positive_factors(rng)
        target = w @ b
        before = kl_loss(target, w @ b)
        w2, b2 = nmf_step_kl(w, b, target)
        assert kl_loss(target, w2 @ b2) <= before + 1e-9

    def test_rank_one_recovery(self):
        """K=1 on an exact outer product drives the loss below 1e-6."""
        rng = np.random.default_rng(23)
        target = np.outer(rng.uniform(0.5, 2.0, 8), rng.uniform(0.5, 2.0, 15))
        w = rng.uniform(0.1, 1.0, size=(8, 1))
        b = rng.uniform(0.1, 1.0, size=(1, 15))
        for _ in range(500):
            w, b = nmf_step_kl(w, b, target)
        assert kl_loss(target, w @ b) < 1e-6

    def test_loss_nonincreasing_over_random_trials(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            w, b = _positive_factors(rng)
            target = rng.uniform(0.0, 2.0, size=(10, 20))
            before = kl_loss(target, w @ b)
            w, b = nmf_step_kl(w, b, target)
            after = kl_loss(target, w @ b)
            assert after <= before + 1e-9
            assert np.all(w >= 0) and np.all(b >= 0)


class TestFitNmf:
    def test_scalar_case(self):
        model = fit_nmf(np.array([[0.7]]), 1, "kl")
        np.testing.assert_allclose(model.weights @ model.bases, 0.7, rtol=1e-6)
        model = fit_nmf(np.array([[0.7]]), 1, "frobenius")
        np.testing.assert_allclose(model.weights @ model.bases, 0.7, rtol=1e-6)

    def test_planted_disjoint_bases_recovered(self):
        """Dirichlet weights times disjoint bumps: greedy-matched cosine
        similarity of every recovered basis stays above 0.95."""
        rng = np.random.default_rng(42)
        b_star = _disjoint_bumps()
        w_star = rng.dirichlet(np.ones(4), size=20)
        model = fit_nmf(w_star @ b_star, 4, "kl", NmfConfig(restarts=5, seed=0))
        matched = _greedy_match(model.bases, b_star)
        assert min(matched) >= 0.95

    def test_k_out_of_range_rejected(self):
        lam = np.full((3, 5), 0.2)
        with pytest.raises(ValueError):
            fit_nmf(lam, 0, "kl")
        with pytest.raises(ValueError):
            fit_nmf(lam, 4, "kl")

    @pytest.mark.parametrize("k", [True, 2.0, "2"])
    def test_k_that_is_not_an_integer_rejected_by_name(self, k):
        """A bool or a float k is a ValueError naming k, not a pass as 1."""
        with pytest.raises(ValueError, match="k must be an integer"):
            fit_nmf(np.full((3, 5), 0.2), k, "kl")

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError, match="loss"):
            fit_nmf(np.ones((2, 2)), 1, "huber")

    def test_trace_and_bookkeeping(self):
        rng = np.random.default_rng(31)
        lam = rng.uniform(0.1, 1.0, size=(8, 12))
        model = fit_nmf(lam, 3, "frobenius", NmfConfig(restarts=2, seed=5))
        assert model.final_loss == model.trace[-1]
        assert np.all(np.diff(model.trace) <= 1e-9)
        assert len(model.trace) - 1 == math.ceil(model.n_iters / CHECK_EVERY)
        assert model.n_iters <= 2000
        assert model.k == 3
        assert np.all(model.weights >= 0) and np.all(model.bases >= 0)
        got = frobenius_loss(lam, model.weights @ model.bases)
        np.testing.assert_allclose(got, model.final_loss, rtol=1e-10)

    @pytest.mark.parametrize("loss", ["kl", "frobenius"])
    def test_zero_tol_runs_every_step_with_a_short_last_window(self, loss):
        """25 steps check the loss after steps 10, 20 and 25; the trace is
        monotone and ends at the loss of the returned factors."""
        rng = np.random.default_rng(41)
        lam = rng.uniform(0.1, 1.0, size=(8, 12))
        config = NmfConfig(max_iters=25, tol=0.0, restarts=1, seed=2)
        model = fit_nmf(lam, 3, loss, config)
        assert model.n_iters == 25
        assert len(model.trace) - 1 == math.ceil(25 / CHECK_EVERY) == 3
        assert np.all(np.diff(model.trace) <= 0)
        loss_fn = kl_loss if loss == "kl" else frobenius_loss
        assert model.final_loss == loss_fn(lam, model.weights @ model.bases)

    def test_window_checks_and_steps(self):
        """The trace holds the start and one loss per window of steps; the
        factors are those of n_iters plain update steps."""
        rng = np.random.default_rng(43)
        lam = rng.uniform(0.1, 1.0, size=(9, 14))
        start = fit_nmf(lam, 2, "kl", NmfConfig(max_iters=0, restarts=1, seed=3))
        for max_iters, tol in [(0, 0.0), (7, 0.0), (30, 0.0), (2000, 1e-4)]:
            config = NmfConfig(max_iters=max_iters, tol=tol, restarts=1, seed=3)
            model = fit_nmf(lam, 2, "kl", config)
            assert len(model.trace) - 1 == math.ceil(model.n_iters / CHECK_EVERY)
            assert model.final_loss == kl_loss(lam, model.weights @ model.bases)
            assert np.all(np.diff(model.trace) <= 0)
            w, b = start.weights, start.bases
            for _ in range(model.n_iters):
                w, b = nmf_step_kl(w, b, lam)
            np.testing.assert_array_equal(w, model.weights)
            np.testing.assert_array_equal(b, model.bases)
        # a 1e-4 tolerance stops well before the cap, on a window boundary
        assert model.n_iters < 2000 and model.n_iters % CHECK_EVERY == 0

    def test_converged_says_whether_the_tolerance_stopped_the_fit(self):
        """A 20-step cap stops the fit before a 1e-4 tolerance does, so it has
        not converged; without the cap the tolerance stops it.  Capped at
        exactly that step count it has still converged, which n_iters ==
        max_iters cannot tell."""
        rng = np.random.default_rng(43)
        lam = rng.uniform(0.1, 1.0, size=(9, 14))

        def fit(max_iters):
            config = NmfConfig(max_iters=max_iters, tol=1e-4, restarts=1, seed=3)
            return fit_nmf(lam, 2, "kl", config)

        capped, free = fit(20), fit(2000)
        assert capped.n_iters == 20 and capped.converged is False
        assert 20 < free.n_iters < 2000 and free.converged is True
        last_check = fit(free.n_iters)
        assert last_check.n_iters == free.n_iters and last_check.converged is True

    def test_deterministic(self):
        rng = np.random.default_rng(37)
        lam = rng.uniform(0.1, 1.0, size=(6, 9))
        a = fit_nmf(lam, 2, "kl", NmfConfig(seed=4))
        b = fit_nmf(lam, 2, "kl", NmfConfig(seed=4))
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.bases, b.bases)

    def test_restarts_only_improve(self):
        """Best-of-restarts is at least as good as the first restart alone."""
        rng = np.random.default_rng(41)
        lam = rng.uniform(0.0, 1.0, size=(12, 18))
        single = fit_nmf(lam, 4, "kl", NmfConfig(restarts=1, seed=2))
        multi = fit_nmf(lam, 4, "kl", NmfConfig(restarts=5, seed=2))
        assert multi.final_loss <= single.final_loss

    def test_config_bounds_name_the_field(self):
        """Restarts below 1, negative or fractional iteration counts, and a
        negative or non-numeric tolerance are rejected by name."""
        bad = [
            ("restarts", 0),
            ("restarts", "two"),
            ("max_iters", -1),
            ("max_iters", 2.5),
            ("tol", -1e-3),
            ("tol", "x"),
        ]
        for field, value in bad:
            with pytest.raises(ValueError, match=f"{field} must be"):
                NmfConfig(**{field: value})
        NmfConfig(restarts=1, max_iters=0, tol=0)


class TestFitPca:
    def _data(self, n=12, v=30, seed=61):
        rng = np.random.default_rng(seed)
        return rng.uniform(0.0, 1.0, size=(n, v))

    def test_components_orthonormal(self):
        model = fit_pca(self._data(), 5)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)

    def test_rank_one_data_explained_by_first_component(self):
        rng = np.random.default_rng(67)
        data = np.outer(rng.uniform(1, 2, 10), rng.uniform(0.5, 1.5, 20))
        model = fit_pca(data, 2)
        share = model.explained_variance[0] / model.explained_variance.sum()
        assert share >= 0.99999

    def test_sign_convention(self):
        model = fit_pca(self._data(), 4)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_k_out_of_range(self):
        data = self._data(n=5, v=30)
        with pytest.raises(ValueError):
            fit_pca(data, 5)
        with pytest.raises(ValueError):
            fit_pca(data, 0)

    def test_optimal_among_rank_k_beats_nmf(self):
        """Truncated SVD minimizes Frobenius error over all rank-K
        approximations, so PCA error never exceeds NMF error at equal K."""
        data = self._data()
        for k in (1, 3, 5):
            pca = fit_pca(data, k)
            err_pca = frobenius_loss(data, pca_reconstruct(pca))
            nmf = fit_nmf(data, k, "frobenius", NmfConfig(restarts=3, seed=0))
            assert err_pca <= nmf.final_loss + 1e-9

    def test_full_rank_reconstruction_exact(self):
        data = self._data(n=6, v=10)
        model = fit_pca(data, 5)
        np.testing.assert_allclose(pca_reconstruct(model), data, atol=1e-10)

    def test_explained_variance_matches_covariance_spectrum(self):
        data = self._data()
        model = fit_pca(data, 6)
        eigs = np.linalg.eigvalsh(np.cov(data.T))[::-1]
        np.testing.assert_allclose(model.explained_variance, eigs[:6], atol=1e-10)


def _ring_dataset(seed):
    """Rows mixing a high-mass interior bump with a low-mass edge ring."""
    g = np.arange(10) + 0.5
    gx, gy = np.meshgrid(g, g)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    border = (pts[:, 0] < 1) | (pts[:, 0] > 9) | (pts[:, 1] < 1) | (pts[:, 1] > 9)
    b_per = border / border.sum()
    b_int = np.exp(-0.5 * ((pts - [5.0, 5.0]) ** 2).sum(1) / 1.2**2)
    b_int /= b_int.sum()
    rng = np.random.default_rng(seed)
    w_int = rng.uniform(0.85, 0.97, 30)
    mix = np.outer(w_int, b_int) + np.outer(1 - w_int, b_per)
    lam = rng.poisson(1500 * mix) / 1500.0
    return lam, b_int, b_per


class TestLossCharacter:
    """How the two losses spend capacity on a low-mass court region."""

    def test_kl_attends_to_perimeter_more_than_frobenius(self):
        """The relative-error loss allocates more basis mass to the faint
        ring than the squared loss does, at every tested noise draw."""
        for seed in (0, 1, 2):
            lam, _, b_per = _ring_dataset(seed)
            sims = {}
            for loss in ("kl", "frobenius"):
                model = fit_nmf(lam, 2, loss, NmfConfig(restarts=5, seed=0))
                sims[loss] = max(_cos(row, b_per) for row in model.bases)
            assert sims["kl"] > sims["frobenius"]

    def test_interior_recovered_by_both(self):
        lam, b_int, _ = _ring_dataset(0)
        for loss in ("kl", "frobenius"):
            model = fit_nmf(lam, 2, loss, NmfConfig(restarts=5, seed=0))
            assert max(_cos(row, b_int) for row in model.bases) > 0.98

    def test_pca_components_mix_signs_nmf_bases_do_not(self):
        lam, _, _ = _ring_dataset(0)
        pca = fit_pca(lam, 2)
        assert np.any(pca.components < 0)
        for loss in ("kl", "frobenius"):
            model = fit_nmf(lam, 2, loss, NmfConfig(restarts=2, seed=0))
            assert np.all(model.bases >= 0)


class TestFactorModelIO:
    def test_round_trip(self, tmp_path):
        """The factorize stage's W, B and manifest read back to the fit of
        its surfaces, with B under their grid."""
        rng = np.random.default_rng(71)
        lam = rng.uniform(0.1, 1.0, size=(5, 8))
        config = NmfConfig(restarts=2, seed=3)
        model = fit_nmf(lam, 2, "kl", config)
        players = [f"p{i}" for i in range(5)]
        grid = CourtGrid(width=4.0, length=2.0, tile_size=(1.0, 1.0))
        surfaces = tmp_path / "surfaces.csv"
        write_labeled_csv(surfaces, players, lam, grid)
        paths = [tmp_path / name for name in ("w.csv", "b.csv", "manifest.txt")]
        stage_factorize([surfaces], paths, 2, "kl", config)
        back_players, weights, _ = read_labeled_csv(paths[0])
        basis_ids, bases, back_grid = read_labeled_csv(paths[1])
        with open(paths[2]) as f:
            meta = json.load(f)
        assert back_players == players
        assert basis_ids == ["basis0", "basis1"]
        np.testing.assert_array_equal(weights, model.weights)
        np.testing.assert_array_equal(bases, model.bases)
        assert back_grid == grid
        assert meta["loss"] == "kl" and meta["k"] == 2
        assert meta["final_loss"] == model.final_loss
        assert meta["iterations"] == model.n_iters
        assert meta["converged"] is model.converged
        assert meta["seed"] == 3
