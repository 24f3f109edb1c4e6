"""Tests for the synthetic data generator and its planted ground truth."""

import json
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from shotfactor.court import CourtGrid, read_labeled_csv, read_shot_csv, tile_indices
from shotfactor.synth import (
    DEFAULT_BETA0,
    PlantedTruth,
    SynthConfig,
    generate_dataset,
    generate_shots,
    make_planted_bases,
    make_planted_truth,
    sample_outcomes,
    sample_player_shots,
)

DESK = CourtGrid(tile_size=(2.5, 2.0))

# a tiny 2x2 court with two hand-made unit-volume bases
G22 = CourtGrid(width=2.0, length=2.0, tile_size=(1.0, 1.0))
B22 = np.array([[0.5, 0.3, 0.15, 0.05], [0.05, 0.15, 0.3, 0.5]])


def _tile_counts(xs, ys, grid):
    return np.bincount(tile_indices(xs, ys, grid), minlength=grid.n_tiles)


def _columns(shots):
    """Each shot's player id, x, y and outcome."""
    return np.array(shots.ids)[shots.codes], shots.x, shots.y, shots.made


class TestMakePlantedBases:
    def test_rows_have_unit_volume(self):
        """Every planted basis integrates to 1 over the court."""
        for k_star in (1, 4, 6):
            bases = make_planted_bases(DESK, k_star, seed=0)
            np.testing.assert_allclose(
                bases.sum(axis=1) * DESK.tile_area, np.ones(k_star), atol=1e-9
            )

    def test_default_bases_nearly_disjoint(self):
        """Pairwise cosine similarity stays below 0.3 at the default K."""
        rng = np.random.default_rng(42)
        for _ in range(10):
            bases = make_planted_bases(DESK, 4, seed=int(rng.integers(1000)))
            norms = np.linalg.norm(bases, axis=1)
            cosine = (bases @ bases.T) / np.outer(norms, norms)
            np.fill_diagonal(cosine, 0.0)
            assert cosine.max() < 0.3

    def test_same_seed_reproduces_bases(self):
        """The generator is deterministic per seed and varies across seeds."""
        a = make_planted_bases(DESK, 4, seed=3)
        b = make_planted_bases(DESK, 4, seed=3)
        np.testing.assert_array_equal(a, b)
        c = make_planted_bases(DESK, 4, seed=4)
        assert np.abs(a - c).max() > 0.0

    def test_too_many_bases_rejected(self):
        """Asking for more archetypes than exist is an error."""
        with pytest.raises(ValueError, match="k_star"):
            make_planted_bases(DESK, 7, seed=0)
        with pytest.raises(ValueError, match="k_star"):
            make_planted_bases(DESK, 0, seed=0)


class TestSamplePlayerShots:
    def test_single_tile_budget_is_poisson_mean(self):
        """On a one-tile court the shot total is Poisson at the budget."""
        grid = CourtGrid(width=1.0, length=1.0, tile_size=(1.0, 1.0))
        bases = np.array([[1.0]])
        rng = np.random.default_rng(42)
        totals = np.array(
            [
                len(sample_player_shots(np.array([1.0]), bases, 100.0, grid, rng)[0])
                for _ in range(1000)
            ],
            dtype=float,
        )
        se = totals.std(ddof=1) / np.sqrt(len(totals))
        assert abs(totals.mean() - 100.0) < 3.0 * se

    def test_unit_weight_vector_recovers_basis(self):
        """A pure-type player's tile frequencies converge to that basis."""
        bases = make_planted_bases(DESK, 4, seed=0)
        rng = np.random.default_rng(1)
        xs, ys = sample_player_shots(
            np.array([0.0, 0.0, 1.0, 0.0]), bases, 1e5, DESK, rng
        )
        freq = _tile_counts(xs, ys, DESK) / len(xs)
        prob = bases[2] * DESK.tile_area
        assert 0.5 * np.abs(freq - prob).sum() < 0.05

    def test_superposition_matches_union_of_draws(self):
        """Counts from a summed intensity match pooled independent draws in
        per-tile mean and variance within 3 standard errors."""
        m1, m2 = 30.0, 50.0
        rng_mix = np.random.default_rng(2)
        rng_sep = np.random.default_rng(3)
        reps = 1000
        mixed = np.zeros((reps, 4))
        union = np.zeros((reps, 4))
        for r in range(reps):
            xs, ys = sample_player_shots(
                np.array([m1, m2]), B22, m1 + m2, G22, rng_mix
            )
            mixed[r] = _tile_counts(xs, ys, G22)
            xs1, ys1 = sample_player_shots(np.array([1.0, 0.0]), B22, m1, G22, rng_sep)
            xs2, ys2 = sample_player_shots(np.array([0.0, 1.0]), B22, m2, G22, rng_sep)
            union[r] = _tile_counts(xs1, ys1, G22) + _tile_counts(xs2, ys2, G22)
        lam = m1 * B22[0] + m2 * B22[1]
        for counts in (mixed, union):
            mean_se = counts.std(axis=0, ddof=1) / np.sqrt(reps)
            assert np.all(np.abs(counts.mean(axis=0) - lam) < 3.0 * mean_se)
            var = counts.var(axis=0, ddof=1)
            var_se = var * np.sqrt(2.0 / (reps - 1))
            assert np.all(np.abs(var - lam) < 3.0 * var_se)

    def test_per_tile_count_means_match_intensity(self):
        """Replicated per-tile counts average to intensity times area."""
        rng = np.random.default_rng(5)
        reps = 1000
        counts = np.zeros((reps, 4))
        for r in range(reps):
            xs, ys = sample_player_shots(np.array([2.0, 1.0]), B22, 50.0, G22, rng)
            counts[r] = _tile_counts(xs, ys, G22)
        lam = 50.0 * (np.array([2.0, 1.0]) / 3.0) @ B22
        se = counts.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(counts.mean(axis=0) - lam) < 3.0 * se)

    def test_locations_stay_inside_their_tiles(self):
        """Sampled coordinates always land in the court."""
        bases = make_planted_bases(DESK, 4, seed=0)
        rng = np.random.default_rng(6)
        xs, ys = sample_player_shots(np.full(4, 0.25), bases, 500.0, DESK, rng)
        assert np.all((xs >= 0) & (xs <= DESK.width))
        assert np.all((ys >= 0) & (ys <= DESK.length))

    def test_zero_budget_gives_two_empty_float_arrays(self):
        """A player who draws no shot gets empty x and y arrays of floats."""
        xs, ys = sample_player_shots(
            np.array([1.0, 1.0]), B22, 0.0, G22, np.random.default_rng(0)
        )
        for a in (xs, ys):
            assert a.shape == (0,) and a.dtype == np.float64

    def test_zero_weights_rejected(self):
        """A player with no positive weight cannot shoot."""
        with pytest.raises(ValueError, match="positive sum"):
            sample_player_shots(
                np.zeros(2), B22, 10.0, G22, np.random.default_rng(0)
            )


class TestSampleOutcomes:
    def test_zero_logits_make_half(self):
        """All-zero logits give a make rate of one half."""
        rng = np.random.default_rng(4)
        tiles = rng.integers(0, 4, size=10000)
        out = sample_outcomes(
            tiles, np.array([1.0]), np.array([[0.25] * 4]), np.array([0.0]), rng
        )
        assert abs(out.mean() - 0.5) < 3.0 * 0.5 / np.sqrt(10000)

    def test_saturated_logit_always_makes(self):
        """A logit of 30 is numerically certain."""
        rng = np.random.default_rng(4)
        tiles = rng.integers(0, 4, size=2000)
        out = sample_outcomes(
            tiles, np.array([1.0]), np.array([[0.25] * 4]), np.array([30.0]), rng
        )
        assert out.all()

    def test_single_basis_rate_matches_logit(self):
        """A one-type player's make rate converges to the inverse logit."""
        rng = np.random.default_rng(4)
        tiles = rng.integers(0, 4, size=10000)
        # consume the draws the other outcome tests would have taken, so the
        # stream position matches the frozen margin for this check
        sample_outcomes(
            tiles, np.array([1.0]), np.array([[0.25] * 4]), np.array([0.0]), rng
        )
        sample_outcomes(
            tiles[:2000], np.array([1.0]), np.array([[0.25] * 4]), np.array([30.0]), rng
        )
        out = sample_outcomes(
            tiles, np.array([1.0]), np.array([[0.25] * 4]), np.array([1.0]), rng
        )
        p = expit(1.0)
        assert abs(out.mean() - p) < 3.0 * np.sqrt(p * (1 - p) / 10000)

    def test_empty_shot_list_gives_empty_outcomes(self):
        """No shots produce an empty outcome array."""
        out = sample_outcomes(
            np.empty(0, dtype=int),
            np.array([1.0]),
            np.array([[0.25] * 4]),
            np.array([0.0]),
            np.random.default_rng(0),
        )
        assert out.shape == (0,) and out.dtype == np.int64


class TestMakePlantedTruth:
    def test_weights_are_distributions(self):
        """Mixing weights are non-negative rows summing to 1."""
        truth = make_planted_truth(SynthConfig(n_players=20, seed=0, grid=DESK))
        assert np.all(truth.weights >= 0)
        np.testing.assert_allclose(truth.weights.sum(axis=1), np.ones(20), atol=1e-12)

    @pytest.mark.parametrize("k_star", range(1, 7))
    def test_global_logits_are_the_first_k_star_defaults(self, k_star):
        truth = make_planted_truth(SynthConfig(n_players=3, k_star=k_star, grid=DESK))
        assert truth.beta0.tolist() == list(DEFAULT_BETA0[:k_star])

    def test_budgets_respect_range(self):
        """Shot budgets land inside the configured range."""
        config = SynthConfig(n_players=50, budget_range=(300, 700), seed=1, grid=DESK)
        truth = make_planted_truth(config)
        assert truth.budgets.min() >= 300 and truth.budgets.max() <= 700

    def test_zero_spread_pins_logits_to_global(self):
        """sigma_star = 0 makes every player's logits equal the global."""
        config = SynthConfig(n_players=5, sigma_star=0.0, seed=2, grid=DESK)
        truth = make_planted_truth(config)
        np.testing.assert_array_equal(
            truth.beta, np.tile(truth.beta0, (5, 1))
        )

    def test_player_ids_unique_and_ordered(self):
        """Player identifiers are distinct and sorted."""
        truth = make_planted_truth(SynthConfig(n_players=12, seed=3, grid=DESK))
        assert len(set(truth.players)) == 12
        assert truth.players == sorted(truth.players)

    def test_config_validation(self):
        """Bad player counts, budgets, and spreads are rejected."""
        with pytest.raises(ValueError):
            SynthConfig(n_players=0)
        with pytest.raises(ValueError):
            SynthConfig(budget_range=(0, 10))
        with pytest.raises(ValueError):
            SynthConfig(budget_range=(50, 10))
        with pytest.raises(ValueError):
            SynthConfig(alpha=0.0)


class TestGenerateShots:
    def test_total_shot_count_in_expected_band(self):
        """60 players at budgets 300..700 give 18000..42000 shots."""
        config = SynthConfig(
            n_players=60, budget_range=(300, 700), seed=0, grid=DESK
        )
        truth = make_planted_truth(config)
        shots = generate_shots(truth, config.seed)
        assert 18000 <= len(shots) <= 42000

    def test_shots_in_court_and_outcomes_binary(self):
        """Every generated shot is on the court with a 0/1 outcome."""
        config = SynthConfig(n_players=6, budget_range=(30, 60), seed=5, grid=DESK)
        shots = generate_shots(make_planted_truth(config), config.seed)
        assert len(shots), "expected some shots"
        assert np.all((shots.x >= 0.0) & (shots.x <= DESK.width))
        assert np.all((shots.y >= 0.0) & (shots.y <= DESK.length))
        assert set(shots.made.tolist()) <= {0, 1}

    def test_player_order_does_not_change_draws(self):
        """Each player's shots come from a stream derived from their index,
        so one player's shots are unaffected by the others."""
        config = SynthConfig(n_players=4, budget_range=(30, 60), seed=6, grid=DESK)
        truth = make_planted_truth(config)
        full = generate_shots(truth, config.seed)
        solo = PlantedTruth(
            bases=truth.bases,
            weights=truth.weights[:1],
            beta=truth.beta[:1],
            beta0=truth.beta0,
            budgets=truth.budgets[:1],
            players=truth.players[:1],
            grid=truth.grid,
        )
        first = full.take(_columns(full)[0] == truth.players[0])
        alone = generate_shots(solo, config.seed)
        for column_first, column_alone in zip(_columns(first), _columns(alone)):
            np.testing.assert_array_equal(column_first, column_alone)

    def test_codes_are_the_sorted_ranks_of_the_player_ids(self):
        """The table equals one built from each shot's player id with
        np.unique: the ids are the cohort's, sorted, and a code is its id's
        rank."""
        config = SynthConfig(n_players=12, budget_range=(30, 60), seed=4, grid=DESK)
        truth = make_planted_truth(config)
        shots = generate_shots(truth, config.seed)
        ids, codes = np.unique(_columns(shots)[0], return_inverse=True)
        assert shots.ids == tuple(ids.tolist()) == tuple(truth.players)
        np.testing.assert_array_equal(shots.codes, codes)

    def test_traced_peak_below_100_bytes_a_shot(self):
        """At 60 players generation keeps the shots' columns and one code a
        shot, no per-shot player id (a list of ids took about 120 bytes a
        shot)."""
        truth = make_planted_truth(SynthConfig(n_players=60, seed=0, grid=DESK))
        shots = generate_shots(truth, 0)  # pays for first-use allocations
        tracemalloc.start()
        try:
            generate_shots(truth, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * len(shots), peak / len(shots)


class TestGenerateDataset:
    def test_regeneration_is_byte_identical(self, tmp_path):
        """The same config writes the same bytes twice."""
        config = SynthConfig(n_players=5, budget_range=(20, 40), seed=9, grid=DESK)
        files1 = generate_dataset(config, tmp_path / "a" / "shots.csv")
        files2 = generate_dataset(config, tmp_path / "b" / "shots.csv")
        for name in files1:
            with open(files1[name], "rb") as f:
                data1 = f.read()
            with open(files2[name], "rb") as f:
                data2 = f.read()
            assert data1 == data2, f"{name} differs between runs"

    def test_artifacts_round_trip(self, tmp_path):
        """Shots and truth matrices reload to the generating values."""
        config = SynthConfig(n_players=5, budget_range=(20, 40), seed=9, grid=DESK)
        truth = make_planted_truth(config)
        files = generate_dataset(config, tmp_path / "shots.csv")
        shots = read_shot_csv(files["shots"], DESK)
        assert len(shots) == len(generate_shots(truth, config.seed))
        ids, weights, _ = read_labeled_csv(files["truth_W"])
        assert ids == truth.players
        np.testing.assert_array_equal(weights, truth.weights)
        _, beta, _ = read_labeled_csv(files["truth_beta"])
        np.testing.assert_array_equal(beta, truth.beta)

    def test_manifest_records_config(self, tmp_path):
        """The manifest is JSON carrying the generating configuration."""
        config = SynthConfig(n_players=5, budget_range=(20, 40), seed=9, grid=DESK)
        files = generate_dataset(config, tmp_path / "shots.csv")
        with open(files["manifest"]) as f:
            manifest = json.load(f)
        assert manifest["n_players"] == 5
        assert manifest["seed"] == 9
        assert manifest["n_shots"] > 0
        assert manifest["grid"] == [35.0, 50.0, 2.5, 2.0]
