"""Tests for held-out scoring, diagnostics, and recovery metrics."""

import csv
import os

import numpy as np
import pytest

from shotfactor.court import (
    CountMatrix,
    CourtGrid,
    ShotTable,
    build_count_matrix,
    split_holdout,
    write_count_csv,
    write_json,
    write_labeled_csv,
)
from shotfactor.evaluate import (
    EPS,
    MODEL_NAMES,
    EvalConfig,
    EvalEntry,
    EvalReport,
    basis_recovery_score,
    compare_surfaces,
    heldout_loglik,
)
from shotfactor.gp import KernelHyper, build_cov_factor
from shotfactor.lgcp import LgcpConfig, fit_cohort
from shotfactor.nmf import COUNT_JITTER, NmfConfig, fit_nmf, fit_pca, pca_reconstruct
from shotfactor.pipeline import stage_evaluate
from shotfactor.synth import make_planted_bases

DESK = CourtGrid(tile_size=(2.5, 2.0))

# The evaluate stage's outputs, in the order of its stage table entry
REPORT_FILES = ("summary.csv", "players.csv", "report.txt")


def _stage_inputs(tmp_path, players):
    """The evaluate stage's input files for a flat unit surface of train
    volume 20 per player on a 4 x 5 ft court, one shot per tile in train
    and test, and no truth file."""
    grid = CourtGrid(width=4.0, length=5.0, tile_size=(1.0, 1.0))
    counts = CountMatrix(np.ones((len(players), grid.n_tiles), int), players, grid)
    unit = np.full((len(players), grid.n_tiles), 1.0 / (grid.n_tiles * grid.tile_area))
    names = ("train.csv", "test.csv", "surfaces.csv", "meta.txt", "truth_B.csv")
    paths = [tmp_path / name for name in names]
    write_count_csv(paths[0], counts)
    write_count_csv(paths[1], counts)
    write_labeled_csv(paths[2], players, unit, grid)
    write_json(paths[3], {"volumes": {player: 20.0 for player in players}})
    return paths


class TestHeldoutLoglik:
    def test_zero_counts_give_negative_scaled_mass(self):
        """With no test shots each player's log-likelihood is minus its own
        test mass."""
        v = DESK.n_tiles
        rows = np.full((2, v), 1.0 / (v * DESK.tile_area))
        value = heldout_loglik(
            np.zeros((2, v)), rows, np.array([90.0, 45.0]), 0.1, DESK.tile_area
        )
        np.testing.assert_allclose(value, [-10.0, -5.0], atol=1e-9)

    def test_uniform_surface_single_shot(self):
        """One test shot under a flat surface adds log(mass / V)."""
        v = DESK.n_tiles
        rows = np.full((1, v), 1.0 / (v * DESK.tile_area))
        counts = np.zeros((1, v))
        counts[0, 17] = 1
        m = 90.0 * 0.1 / 0.9
        value = heldout_loglik(counts, rows, np.array([90.0]), 0.1, DESK.tile_area)
        np.testing.assert_allclose(value, [-m + np.log(m / v)], atol=1e-9)

    def test_zero_surface_floored_to_finite(self):
        """A dead tile cannot produce an infinite penalty."""
        rows = np.array([[0.5, 0.5, 0.0, 0.0]])
        counts = np.array([[0.0, 0.0, 3.0, 0.0]])
        (value,) = heldout_loglik(counts, rows, np.array([50.0]), 0.1, 1.0)
        assert np.isfinite(value)
        assert value < -20.0

    def test_invalid_fraction_rejected(self):
        """Holdout fractions outside (0, 1) are errors."""
        rows = np.full((1, 4), 0.25)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="fraction"):
                heldout_loglik(np.zeros((1, 4)), rows, np.array([10.0]), bad, 1.0)


class TestEmpiricalCorrelation:
    def test_far_arc_tiles_outcorrelate_equidistant_interior(self):
        """Across players, two wing tiles on the same arc correlate more
        strongly than an arc tile and an equally distant interior tile."""
        bases = make_planted_bases(DESK, 5, seed=0)
        centers = DESK.tile_centers()
        arc = bases[3]
        left = np.where(centers[:, 0] < 10)[0]
        right = np.where(centers[:, 0] > 25)[0]
        arc1 = int(left[np.argmax(arc[left])])
        arc2 = int(right[np.argmax(arc[right])])
        span = np.linalg.norm(centers[arc1] - centers[arc2])
        mid = bases[4]
        cand = np.where(mid > 0.3 * mid.max())[0]
        dists = np.linalg.norm(centers[cand] - centers[arc1], axis=1)
        interior = int(cand[np.argmin(np.abs(dists - span))])

        rng = np.random.default_rng(0)
        n = 60
        weights = rng.dirichlet(np.ones(5), size=n)
        budgets = rng.integers(300, 700, size=n)
        lam = (weights * budgets[:, None]) @ bases * DESK.tile_area
        cm = CountMatrix(
            rng.poisson(lam).astype(float), [f"p{i}" for i in range(n)], DESK
        )
        assert cm.counts[:, interior].std() > 0, "interior tile must vary"
        corr = np.corrcoef(cm.counts[:, [arc1, arc2, interior]], rowvar=False)[0]
        assert corr[1] > corr[2] + 0.3


class TestBasisRecoveryScore:
    def test_identical_bases_score_one(self):
        """Perfect estimates match with mean cosine similarity 1."""
        rng = np.random.default_rng(42)
        b = rng.uniform(0.0, 1.0, size=(4, 30))
        score = basis_recovery_score(b, b)
        np.testing.assert_allclose(score.mean, 1.0, atol=1e-12)

    def test_row_permutation_still_scores_one(self):
        """Recovery is invariant to the order of estimated bases."""
        rng = np.random.default_rng(42)
        b = rng.uniform(0.0, 1.0, size=(4, 30))
        perm = [2, 0, 3, 1]
        score = basis_recovery_score(b[perm], b)
        np.testing.assert_allclose(score.mean, 1.0, atol=1e-12)
        assert sorted(score.pairs, key=lambda p: p[1]) == [
            (perm.index(j), j) for j in range(4)
        ]

    def test_multiplicative_noise_scores_above_095(self):
        """Ten percent relative noise keeps mean similarity above 0.95."""
        rng = np.random.default_rng(42)
        for _ in range(10):
            b = rng.uniform(0.1, 1.0, size=(4, 50))
            noisy = b * (1.0 + 0.1 * rng.standard_normal(b.shape))
            assert basis_recovery_score(np.abs(noisy), b).mean > 0.95

    def test_extra_estimates_allowed_but_fewer_rejected(self):
        """K estimated rows may exceed the truth, never undershoot it."""
        rng = np.random.default_rng(42)
        b = rng.uniform(0.0, 1.0, size=(3, 20))
        extra = np.vstack([b, rng.uniform(0.0, 1.0, size=(2, 20))])
        score = basis_recovery_score(extra, b)
        assert len(score.pairs) == 3
        np.testing.assert_allclose(score.mean, 1.0, atol=1e-12)
        with pytest.raises(ValueError, match="at least as many"):
            basis_recovery_score(b[:2], b)
        with pytest.raises(ValueError, match="disagree"):
            basis_recovery_score(b[:, :10], b)

    def test_tied_estimates_match_the_lower_index(self):
        """Two identical estimated bases tie on every true one; the lower
        estimated index takes the match."""
        rng = np.random.default_rng(42)
        b = rng.uniform(0.0, 1.0, size=(2, 20))
        score = basis_recovery_score(np.vstack([b[1], b[0], b[0]]), b[:1])
        assert score.pairs == [(1, 0)]


def _two_basis_shots(rng, n_players, per_player):
    """Shots from two separated bumps on a small court."""
    grid = CourtGrid(width=10.0, length=8.0, tile_size=(2.0, 2.0))
    rows = []
    for i in range(n_players):
        lean = rng.uniform(0.2, 0.8)
        for _ in range(per_player):
            if rng.random() < lean:
                x, y = rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)
            else:
                x, y = rng.uniform(6.0, 10.0), rng.uniform(4.0, 8.0)
            made = int(rng.random() < 0.45)
            rows.append((f"p{i}", float(x), float(y), made))
    players, xs, ys, made = zip(*rows)
    ids, codes = np.unique(players, return_inverse=True)
    return ShotTable(tuple(ids.tolist()), codes, xs, ys, made), grid


@pytest.fixture(scope="module")
def report_and_truth():
    rng = np.random.default_rng(42)
    shots, grid = _two_basis_shots(rng, 6, 220)
    truth = np.zeros((2, grid.n_tiles))
    centers = grid.tile_centers()
    truth[0, (centers[:, 0] < 5) & (centers[:, 1] < 4)] = 1.0
    truth[1, (centers[:, 0] > 5) & (centers[:, 1] > 4)] = 1.0
    truth /= truth.sum(axis=1, keepdims=True) * grid.tile_area
    config = EvalConfig(fraction=0.2, nmf=NmfConfig(max_iters=400, restarts=2, seed=0))
    train, test = split_holdout(shots, config.fraction, config.nmf.seed)
    cm_train = build_count_matrix(train, grid, min_attempts=20)
    cm_test = build_count_matrix(test, grid, min_attempts=0, players=cm_train.players)
    factor = build_cov_factor(grid, KernelHyper(variance=1.0, length_scale=2.0))
    lgcp = LgcpConfig(burn_in=100, n_samples=100, thinning=1, seed=0)
    surfaces, volumes = fit_cohort(cm_train.counts, factor, grid, lgcp)
    report = compare_surfaces(
        cm_train, cm_test, surfaces, volumes, [1, 2], config, truth_bases=truth
    )
    return report, truth


class TestRunComparison:
    def test_every_model_scored_at_every_k(self, report_and_truth):
        """The report holds one entry per requested model and K."""
        report, _ = report_and_truth
        seen = {(e.model, e.k) for e in report.entries}
        for model in ("lgcp", "nmf_kl", "nmf_frobenius", "nmf_counts", "pca"):
            for k in (1, 2):
                assert (model, k) in seen

    def test_independent_lgcp_constant_across_k(self, report_and_truth):
        """The no-factorization baseline does not depend on K."""
        report, _ = report_and_truth
        np.testing.assert_array_equal(
            report.entry("lgcp", 1).per_player,
            report.entry("lgcp", 2).per_player,
        )

    def test_averages_equal_per_player_means(self, report_and_truth):
        """Summary means are exactly the mean of the per-player columns."""
        report, _ = report_and_truth
        for e in report.entries:
            np.testing.assert_allclose(e.mean, e.per_player.mean(), atol=1e-12)
            assert len(e.per_player) == len(report.players)

    def test_recovery_scored_when_truth_given(self, report_and_truth):
        """NMF bases are matched against the planted ones at K >= K*."""
        report, _ = report_and_truth
        assert ("nmf_kl", 2) in report.recovery
        assert ("nmf_kl", 1) not in report.recovery
        score = report.recovery[("nmf_kl", 2)]
        assert 0.0 < score.mean <= 1.0

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_each_model_scores_its_reduced_surfaces(self, model):
        """Every model's per-player scores equal heldout_loglik on its unit
        rows and volumes, built here by hand: PCA at K = N clamps to N - 1,
        nmf_counts fits the counts plus COUNT_JITTER, so raw zeros never
        reach the KL loss, and only the NMF models score basis recovery,
        at K >= K* only."""
        grid = CourtGrid(width=4.0, length=5.0, tile_size=(1.0, 1.0))
        area = grid.tile_area
        rng = np.random.default_rng(43)
        players = [f"p{i}" for i in range(6)]
        train = CountMatrix(rng.poisson(1.0, size=(6, grid.n_tiles)), players, grid)
        test = CountMatrix(rng.poisson(0.2, size=(6, grid.n_tiles)), players, grid)
        assert (train.counts == 0).any()
        surfaces = rng.uniform(0.1, 1.0, size=(6, grid.n_tiles))
        unit = surfaces / (surfaces.sum(axis=1, keepdims=True) * area)
        volumes = rng.uniform(50.0, 150.0, size=6)
        truth = rng.uniform(0.0, 1.0, size=(2, grid.n_tiles))
        config = EvalConfig(fraction=0.2, nmf=NmfConfig(seed=7), models=(model,))
        report = compare_surfaces(train, test, unit, volumes, [1, 6], config, truth)

        def expected(k):
            if model == "lgcp":
                return heldout_loglik(test.counts, unit, volumes, 0.2, area), None
            vols, bases = volumes, None
            if model == "pca":
                rows = np.maximum(pca_reconstruct(fit_pca(unit, min(k, 5))), EPS)
            elif model == "nmf_counts":
                fit = fit_nmf(train.counts + COUNT_JITTER, k, "kl", config.nmf)
                assert np.isfinite(fit.final_loss)
                rows = np.maximum((fit.weights @ fit.bases) / area, EPS)
                vols, bases = rows.sum(axis=1) * area, fit.bases
            else:
                loss = {"nmf_kl": "kl", "nmf_frobenius": "frobenius"}[model]
                fit = fit_nmf(unit, k, loss, config.nmf)
                rows, bases = np.maximum(fit.weights @ fit.bases, EPS), fit.bases
            rows = rows / (rows.sum(axis=1, keepdims=True) * area)
            return heldout_loglik(test.counts, rows, vols, 0.2, area), bases

        scores, bases = expected(6)
        np.testing.assert_array_equal(report.entry(model, 6).per_player, scores)
        np.testing.assert_array_equal(report.entry(model, 1).per_player, expected(1)[0])
        if model.startswith("nmf"):
            assert list(report.recovery) == [(model, 6)]
            recovered = report.recovery[(model, 6)].similarities
            want = basis_recovery_score(bases, truth).similarities
            np.testing.assert_array_equal(recovered, want)
        else:
            assert report.recovery == {}

    def test_missing_entry_raises(self, report_and_truth):
        """Looking up a model/K pair that was not fitted is an error."""
        report, _ = report_and_truth
        with pytest.raises(KeyError):
            report.entry("lgcp", 99)

    def _one_player(self, models):
        grid = CourtGrid(width=4.0, length=5.0, tile_size=(1.0, 1.0))
        counts = CountMatrix(np.ones((1, grid.n_tiles)), ["p0"], grid)
        unit = np.full((1, grid.n_tiles), 1.0 / (grid.n_tiles * grid.tile_area))
        config = EvalConfig(nmf=NmfConfig(seed=7, restarts=1), models=models)
        return compare_surfaces(counts, counts, unit, np.array([20.0]), [1], config)

    def test_one_player_fails_before_any_fit(self, monkeypatch):
        """PCA needs two players to find one component; with fewer the
        comparison stops before fitting anything, and names the reason."""

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the player check")

        monkeypatch.setattr("shotfactor.evaluate.fit_nmf", no_fit)
        message = "the pca baseline needs at least 2 players, got 1"
        with pytest.raises(ValueError, match=message):
            self._one_player(MODEL_NAMES)
        assert len(self._one_player(("lgcp",)).entries) == 1

    def test_report_header_gives_the_fit_seed(self, tmp_path):
        """The text report's header gives the held-out fraction and the seed
        the NMF fits ran with."""
        outputs = [tmp_path / name for name in REPORT_FILES]
        config = EvalConfig(
            fraction=0.25, nmf=NmfConfig(seed=7, restarts=1), models=("lgcp",)
        )
        stage_evaluate(_stage_inputs(tmp_path, ["p0"]), outputs, [1], config)
        header = outputs[2].read_text().splitlines()[0]
        assert header == "held-out log-likelihood (fraction=0.25, seed=7, 1 players)"

    def test_config_validation(self):
        """Fractions and model names are checked up front."""
        with pytest.raises(ValueError, match="fraction"):
            EvalConfig(fraction=1.5)
        with pytest.raises(ValueError, match="unknown models"):
            EvalConfig(models=("lgcp", "mystery"))


class TestWriteEvalReport:
    def test_files_written_and_parse_back(self, tmp_path, monkeypatch):
        """The evaluate stage's summary, per-player, and text files land
        with matching numbers."""
        entries = [
            EvalEntry("lgcp", 2, np.array([-5.0, -7.0, -6.0])),
            EvalEntry("nmf_kl", 2, np.array([-4.5, -6.5, -5.5])),
        ]
        report = EvalReport(entries=entries, players=["a", "b", "c"])
        monkeypatch.setattr("shotfactor.pipeline.compare_surfaces", lambda *a: report)
        paths = [tmp_path / name for name in REPORT_FILES]
        inputs = _stage_inputs(tmp_path, ["a", "b", "c"])
        stage_evaluate(inputs, paths, [2], EvalConfig(nmf=NmfConfig(seed=3)))
        assert all(os.path.exists(p) for p in paths)
        with open(paths[0], newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["model", "k", "mean", "stderr", "per_player_file"]
        assert rows[1][0] == "lgcp" and float(rows[1][2]) == -6.0
        assert rows[1][4] == "players.csv"
        with open(paths[1], newline="") as f:
            per_rows = list(csv.reader(f))
        assert len(per_rows) == 1 + 2 * 3
        with open(paths[2]) as f:
            text = f.read()
        assert "nmf_kl" in text and "held-out log-likelihood" in text
