"""Kernel-level checks: each compute kernel against an independent
reference."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit, gammaln
from scipy.stats import poisson

from shotfactor import backend as bk

def _random_loglik_case(rng, v=40):
    counts = rng.poisson(3.0, size=v).astype(np.float64)
    field = rng.normal(0.0, 1.0, size=v)
    bias = float(rng.normal())
    area = float(rng.uniform(0.5, 5.0))
    return counts, field, bias, area


class TestLogFactorial:
    @pytest.mark.parametrize(
        "counts",
        [
            np.arange(501),
            np.zeros((3, 4), dtype=np.int64),
            np.zeros(0),
            np.array([], dtype=int),
        ],
        ids=["0..500", "all_zero", "empty", "empty_int"],
    )
    def test_matches_scipy_gammaln(self, counts):
        got = bk.log_factorial(counts)
        assert got.shape == counts.shape and got.dtype == np.float64
        np.testing.assert_allclose(got, gammaln(counts + 1.0), rtol=1e-14)


class TestExpit:
    def test_matches_scipy_without_warnings(self):
        """Close to scipy's expit across the range where exp(-x) overflows
        or underflows, with no floating-point error raised."""
        x = np.linspace(-800.0, 800.0, 16001)
        with np.errstate(all="raise"):
            got = bk.expit(x)
        np.testing.assert_allclose(got, expit(x), rtol=0, atol=1e-15)
        assert got[0] == 0.0 and got[-1] == 1.0


def _poisson_loglik(counts, field, bias, area):
    """Full Poisson log-likelihood: the linear term counts . field plus the
    kernel, whose constants fold in log(area), the bias and log(c!)."""
    scale = area * math.exp(bias)
    const = counts.sum() * (math.log(area) + bias) - bk.log_factorial(counts).sum()
    return np.dot(counts, field) + bk.poisson_field_loglik(field, scale, const)


def _bernoulli_loglik(makes, attempts, logits):
    """Full binomial log-likelihood: the linear term makes . logits plus the
    kernel."""
    return np.dot(makes, logits) + bk.bernoulli_logits_loglik(attempts, logits)


class TestPoissonFieldLoglik:
    def test_matches_scipy_logpmf(self):
        """Sum of independent Poisson log-pmfs with mean area*exp(field+bias)."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            counts, field, bias, area = _random_loglik_case(rng)
            expected = poisson.logpmf(counts, area * np.exp(field + bias)).sum()
            got = _poisson_loglik(counts, field, bias, area)
            np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_single_tile_literal(self):
        """c=2, rate*area=2 gives log(2^2 e^-2 / 2!) = log 2 - 2."""
        got = _poisson_loglik(np.array([2.0]), np.array([math.log(2.0)]), 0.0, 1.0)
        np.testing.assert_allclose(got, -1.3068528194400546, rtol=1e-14)


class TestBernoulliLogitsLoglik:
    def test_matches_direct_formula(self):
        """m*log(p) + (a-m)*log(1-p) summed, p = expit(logit)."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            attempts = rng.integers(0, 50, size=30).astype(np.float64)
            makes = (attempts * rng.random(30)).round()
            logits = rng.normal(0, 2, size=30)
            p = expit(logits)
            expected = (makes * np.log(p) + (attempts - makes) * np.log1p(-p)).sum()
            got = _bernoulli_loglik(makes, attempts, logits)
            np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_extreme_logits_finite(self):
        """Saturated logits must not overflow when their count is zero."""
        makes = np.array([5.0, 0.0])
        attempts = np.array([5.0, 3.0])
        logits = np.array([40.0, -40.0])
        got = _bernoulli_loglik(makes, attempts, logits)
        assert np.isfinite(got)
        np.testing.assert_allclose(got, 0.0, atol=1e-10)

    def test_zero_attempts_contribute_nothing(self):
        got = _bernoulli_loglik(
            np.zeros(4), np.zeros(4), np.array([-5.0, 0.0, 2.0, 30.0])
        )
        assert got == 0.0


def _random_mixture(rng, n=6, k=4, v=30):
    weights = rng.uniform(0.0, 1.0, size=(n, k))
    bases = rng.uniform(0.0, 1.0, size=(k, v))
    return weights, bases


def _gathered_type_weights(weights, bases, rows, tiles):
    """The S x K table built from gathered copies of weights and bases, the
    reference that the in-place kernel matches bit for bit."""
    probs = weights[rows] * bases[:, tiles].T
    totals = probs.sum(axis=1)
    dead = totals <= 0.0
    probs[dead] = 1.0
    totals[dead] = float(probs.shape[1])
    return probs, totals


def _gathered_surface(weights, bases, logits):
    """The mixture surface from one gathered table over every (row, tile)
    pair, transposed to R x K x V: the reference for the broadcast kernel."""
    r, k = weights.shape
    v = bases.shape[1]
    rows = np.repeat(np.arange(r), v)
    probs, _ = _gathered_type_weights(weights, bases, rows, np.tile(np.arange(v), r))
    num = np.ascontiguousarray(probs.reshape(r, v, k).transpose(0, 2, 1))
    return (bk.expit(logits)[:, None, :] @ num)[:, 0, :] / num.sum(axis=1)


def _mixture_with_dead_tile(k):
    """Seven rows over 60 tiles with zero weights here and there, a row of
    zero weight, and tile 7 that no basis reaches."""
    rng = np.random.default_rng(60 + k)
    weights, bases = _random_mixture(rng, n=7, k=k, v=60)
    weights[rng.random(weights.shape) < 0.2] = 0.0
    weights[3] = 0.0
    bases[:, 7] = 0.0
    return rng, weights, bases


class TestTypeWeights:
    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_matches_gathered_reference_bit_for_bit(self, k):
        """Column by column, the table and its sums equal the gathered
        ones, on pairs no basis reaches too."""
        rng, weights, bases = _mixture_with_dead_tile(k)
        rows = rng.integers(0, 7, size=500)
        tiles = rng.integers(0, 60, size=500)
        tiles[:20] = 7
        got = bk.type_weights(weights, bases, rows, tiles)
        want = _gathered_type_weights(weights, bases, rows, tiles)
        assert np.any(want[1] == k)
        for got_part, want_part in zip(got, want):
            np.testing.assert_array_equal(got_part, want_part)

    def test_products_and_sums(self):
        """Row i holds weights[rows[i]] * bases[:, tiles[i]] and its sum."""
        rng = np.random.default_rng(13)
        weights, bases = _random_mixture(rng)
        rows = rng.integers(0, 6, size=50)
        tiles = rng.integers(0, 30, size=50)
        probs, totals = bk.type_weights(weights, bases, rows, tiles)
        for i in range(50):
            np.testing.assert_array_equal(
                probs[i], weights[rows[i]] * bases[:, tiles[i]]
            )
        np.testing.assert_array_equal(totals, probs.sum(axis=1))

    def test_dead_pair_gets_uniform_weights(self):
        """A pair no basis reaches gets weight 1 per type and sum K."""
        weights = np.array([[1.0, 2.0, 3.0]])
        bases = np.zeros((3, 2))
        bases[:, 0] = 1.0
        probs, totals = bk.type_weights(weights, bases, [0, 0], [0, 1])
        np.testing.assert_array_equal(probs, [[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(totals, [6.0, 3.0])


def _draw(weights, bases, players, tiles, uniforms):
    probs, totals = bk.type_weights(weights, bases, players, tiles)
    return bk.draw_type_indices(np.cumsum(probs, axis=1), totals, uniforms)


def _draw_by_table(cum, totals, uniforms):
    """The S x K comparison that the column count replaces."""
    draws = (uniforms[:, None] * totals[:, None] > cum).sum(axis=1)
    return np.minimum(draws, cum.shape[1] - 1)


class TestDrawTypeIndices:
    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_equals_full_table_comparison(self, k):
        """Counting x > cum over the first K - 1 columns gives the S x K
        comparison's indices: on random tables, with zero-weight types, on
        dead rows (weight 1 per type, sum K), and where x reaches or passes
        the row total."""
        rng = np.random.default_rng(100 + k)
        s = 400
        weights = rng.uniform(0.0, 1.0, size=(6, k))
        weights[rng.random((6, k)) < 0.3] = 0.0
        bases = rng.uniform(0.0, 1.0, size=(k, 30))
        bases[:, 25:] = 0.0
        probs, totals = bk.type_weights(
            weights, bases, rng.integers(0, 6, size=s), rng.integers(0, 30, size=s)
        )
        cum = np.cumsum(probs, axis=1)
        uniforms = rng.random(s)
        # the last rows put x at and just above the row total
        uniforms[-20:] = 1.0
        totals[-10:] = np.nextafter(cum[-10:, -1], np.inf)
        x = uniforms * totals
        assert np.any(x > cum[:, -1]) and np.any(x == cum[:, -1])
        # with one type a zero weight makes the row dead
        assert np.any(totals == k) and (k == 1 or np.any(probs == 0.0))
        for table in (cum, np.asfortranarray(cum)):
            got = bk.draw_type_indices(table, totals, uniforms)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, _draw_by_table(cum, totals, uniforms))

    def test_matches_manual_inverse_cdf(self):
        """Each draw is the inverse-CDF index of its per-shot posterior."""
        rng = np.random.default_rng(17)
        weights, bases = _random_mixture(rng)
        s = 200
        players = rng.integers(0, 6, size=s)
        tiles = rng.integers(0, 30, size=s)
        uniforms = rng.random(s)
        got = _draw(weights, bases, players, tiles, uniforms)
        for i in range(s):
            probs = weights[players[i]] * bases[:, tiles[i]]
            cdf = np.cumsum(probs / probs.sum())
            expected = int(np.searchsorted(cdf, uniforms[i], side="right"))
            assert got[i] == min(expected, len(cdf) - 1)

    def test_zero_mass_tile_uniform_fallback(self):
        """A tile no component can produce draws uniformly over components."""
        weights = np.array([[1.0, 1.0, 1.0]])
        bases = np.zeros((3, 2))
        bases[:, 0] = 1.0
        uniforms = np.array([0.1, 0.5, 0.9])
        got = _draw(
            weights,
            bases,
            np.zeros(3, dtype=np.int64),
            np.ones(3, dtype=np.int64),
            uniforms,
        )
        np.testing.assert_array_equal(got, [0, 1, 2])

    def test_point_mass_component(self):
        """A table with all weight on one type always draws it."""
        cum = np.tile([0.0, 4.0, 4.0], (5, 1))
        got = bk.draw_type_indices(cum, np.full(5, 4.0), np.linspace(0.01, 0.99, 5))
        np.testing.assert_array_equal(got, [1, 1, 1, 1, 1])


class TestSqExpMatrix:
    def test_matches_direct_expression(self):
        rng = np.random.default_rng(23)
        points = rng.uniform(0, 35, size=40)
        got = bk.sq_exp_matrix(points, 4.2)
        d2 = (points[:, None] - points[None, :]) ** 2
        expected = np.exp(-0.5 * d2 / 4.2**2)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_symmetric_with_variance_diagonal(self):
        rng = np.random.default_rng(29)
        points = rng.uniform(0, 10, size=25)
        k = bk.sq_exp_matrix(points, 3.0)
        np.testing.assert_allclose(k, k.T, rtol=0, atol=0)
        np.testing.assert_allclose(np.diag(k), 1.0, rtol=1e-14)


class TestAggregateOutcomes:
    def test_matches_dense_accumulation(self):
        rng = np.random.default_rng(37)
        s, n, k = 500, 8, 5
        players = rng.integers(0, n, size=s)
        types = rng.integers(0, k, size=s)
        made = rng.integers(0, 2, size=s)
        makes, attempts = bk.aggregate_outcomes(players, types, made, n, k)
        exp_makes = np.zeros((n, k))
        exp_attempts = np.zeros((n, k))
        for i in range(s):
            exp_attempts[players[i], types[i]] += 1
            exp_makes[players[i], types[i]] += made[i]
        np.testing.assert_array_equal(makes, exp_makes)
        np.testing.assert_array_equal(attempts, exp_attempts)
        assert attempts.sum() == s


class TestMixtureProbabilitySurface:
    def test_matches_manual_mixture(self):
        rng = np.random.default_rng(43)
        weights, bases = _random_mixture(rng, n=3)
        logits = rng.normal(0, 1, size=(3, 4))
        got = bk.mixture_probability_surface(weights, bases, logits)
        assert got.shape == (3, bases.shape[1])
        for r in range(3):
            for t in range(bases.shape[1]):
                raw = weights[r] * bases[:, t]
                expected = float(expit(logits[r]) @ (raw / raw.sum()))
                np.testing.assert_allclose(got[r, t], expected, rtol=1e-10)

    def test_dead_tile_uses_uniform_mixture(self):
        weights = np.array([[1.0, 1.0], [3.0, 0.5]])
        bases = np.array([[1.0, 0.0], [2.0, 0.0]])
        logits = np.array([[2.0, -1.0], [0.5, 4.0]])
        got = bk.mixture_probability_surface(weights, bases, logits)
        np.testing.assert_allclose(got[:, 1], expit(logits).mean(axis=1), rtol=1e-12)

    @pytest.mark.parametrize("k", [1, 4, 9, 12])
    def test_rows_match_column_sum_formula_bit_for_bit(self, k):
        """Every row is expit(l) @ num / num.sum(axis=0) on its own K x V
        products, bit for bit, dead tile included: the batched kernel adds
        over types in the same order as a one-row evaluation."""
        rng = np.random.default_rng(53)
        weights, bases = _random_mixture(rng, n=7, k=k, v=60)
        bases[:, 7] = 0.0
        logits = rng.normal(0, 1, size=(7, k))
        got = bk.mixture_probability_surface(weights, bases, logits)
        for w, l, row in zip(weights, logits, got):
            num = w[:, None] * bases
            num[:, 7] = 1.0
            expected = (bk.expit(l) @ num) / num.sum(axis=0)
            np.testing.assert_array_equal(row, expected)

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_matches_gathered_reference_bit_for_bit(self, k):
        """Broadcast products give the gathered kernel's surface, dead tile
        and zero-weight row included."""
        rng, weights, bases = _mixture_with_dead_tile(k)
        logits = rng.normal(0, 1, size=(7, k))
        got = bk.mixture_probability_surface(weights, bases, logits)
        np.testing.assert_array_equal(got, _gathered_surface(weights, bases, logits))

    def test_traces_at_most_eight_times_its_output(self):
        """At 60 x 350 x 4 the traced peak stays within 8x the output: the
        products are broadcast once (the gathered reference traces 13x)."""
        rng = np.random.default_rng(59)
        weights, bases = _random_mixture(rng, n=60, k=4, v=350)
        logits = rng.normal(0, 1, size=(60, 4))
        out = bk.mixture_probability_surface(weights, bases, logits)
        tracemalloc.start()
        try:
            bk.mixture_probability_surface(weights, bases, logits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * out.nbytes

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            weights, bases = _random_mixture(rng)
            logits = rng.normal(0, 3, size=weights.shape)
            got = bk.mixture_probability_surface(weights, bases, logits)
            assert np.all(got > 0) and np.all(got < 1)
