"""Tests for the Pólya-Gamma samplers (moment checks, property tests)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling import (
    log_psi,
    pg_mean,
    pg_variance,
    sample_pg,
    sample_pg1,
    sample_pg_array,
    sigmoid,
)


class TestMoments:
    def test_mean_at_zero(self):
        assert pg_mean(1, 0.0) == pytest.approx(0.25)

    def test_mean_formula(self):
        z = 2.0
        assert pg_mean(1, z) == pytest.approx(np.tanh(z / 2) / (2 * z))

    def test_mean_scales_with_b(self):
        assert pg_mean(3, 1.0) == pytest.approx(3 * pg_mean(1, 1.0))

    def test_mean_symmetric_in_z(self):
        assert pg_mean(1, 1.5) == pytest.approx(pg_mean(1, -1.5))

    def test_variance_at_zero(self):
        assert pg_variance(1, 0.0) == pytest.approx(1.0 / 24.0)

    def test_variance_small_z_continuity(self):
        assert pg_variance(1, 1e-5) == pytest.approx(pg_variance(1, 0.0), rel=1e-3)

    @pytest.mark.parametrize("z", [0.5, 3.0, 30.0, 300.0])
    def test_variance_formula(self, z):
        expected = (np.sinh(z) - z) / (4 * z**3 * np.cosh(z / 2) ** 2)
        assert pg_variance(1, z) == pytest.approx(expected, rel=1e-12)

    def test_variance_finite_for_large_z(self):
        # (sinh z - z) / cosh^2(z/2) overflowed; the limit is 1 / (2 z^3)
        assert pg_variance(1, 1e3) == pytest.approx(1 / (2 * 1e9), rel=1e-12)

    def test_invalid_b(self):
        with pytest.raises(ValueError):
            pg_mean(0, 1.0)
        with pytest.raises(ValueError):
            pg_variance(-1, 1.0)


class TestDevroyeSampler:
    @pytest.mark.parametrize("z", [0.0, 0.5, 1.5, 4.0, 10.0])
    def test_mean_matches(self, z, rng):
        draws = np.array([sample_pg1(z, rng) for _ in range(4000)])
        expected = pg_mean(1, z)
        tolerance = 4 * np.sqrt(pg_variance(1, z) / len(draws))
        assert abs(draws.mean() - expected) < tolerance

    def test_variance_matches_at_zero(self, rng):
        draws = np.array([sample_pg1(0.0, rng) for _ in range(6000)])
        assert draws.var() == pytest.approx(1.0 / 24.0, rel=0.15)

    def test_draws_positive(self, rng):
        assert all(sample_pg1(2.0, rng) > 0 for _ in range(200))

    def test_negative_z_same_distribution(self, rng):
        pos = np.array([sample_pg1(3.0, rng) for _ in range(3000)])
        neg = np.array([sample_pg1(-3.0, rng) for _ in range(3000)])
        assert abs(pos.mean() - neg.mean()) < 0.01

    @pytest.mark.parametrize("z", [100.0, 300.0, 1e3])
    def test_large_z_mean_matches(self, z, rng):
        """The branch mass used to overflow ``math.exp`` above z ~ 97."""
        draws = np.array([sample_pg1(z, rng) for _ in range(2000)])
        tolerance = 4 * np.sqrt(pg_variance(1, z) / len(draws))
        assert abs(draws.mean() - pg_mean(1, z)) < tolerance

    def test_deterministic_given_seed(self):
        a = sample_pg1(1.0, np.random.default_rng(0))
        b = sample_pg1(1.0, np.random.default_rng(0))
        assert a == b


class TestSamplePgB:
    def test_sum_of_ones(self, rng):
        draws = np.array([sample_pg(3, 1.0, rng) for _ in range(2000)])
        assert draws.mean() == pytest.approx(pg_mean(3, 1.0), rel=0.1)

    def test_batched_moments(self, rng):
        """The sum of b array draws matches PG(b, z) mean and variance."""
        b, z = 5, 2.0
        draws = np.array([sample_pg(b, z, rng) for _ in range(4000)])
        assert draws.mean() == pytest.approx(pg_mean(b, z), rel=0.05)
        assert draws.var() == pytest.approx(pg_variance(b, z), rel=0.2)

    def test_invalid_b(self, rng):
        with pytest.raises(ValueError):
            sample_pg(0, 1.0, rng)
        with pytest.raises(ValueError):
            sample_pg(1.5, 1.0, rng)


class TestSeriesSampler:
    """``sample_pg_array``: Devroye's alternating-series sampler over arrays."""

    @pytest.mark.parametrize("z", [0.0, 1.0, 5.0])
    def test_mean_matches(self, z, rng):
        draws = sample_pg_array(np.full(6000, z), rng)
        expected = pg_mean(1, z)
        tolerance = 4 * np.sqrt(pg_variance(1, z) / len(draws))
        assert abs(draws.mean() - expected) < tolerance

    def test_shape_preserved(self, rng):
        z = np.zeros((7,))
        assert sample_pg_array(z, rng).shape == (7,)
        assert sample_pg_array(np.ones((3, 4)), rng).shape == (3, 4)
        assert sample_pg_array(np.zeros(0), rng).shape == (0,)

    def test_heterogeneous_z(self, rng):
        z = np.array([0.0, 8.0])
        draws = np.stack([sample_pg_array(z, rng) for _ in range(3000)])
        assert draws[:, 0].mean() == pytest.approx(0.25, rel=0.1)
        assert draws[:, 1].mean() == pytest.approx(pg_mean(1, 8.0), rel=0.1)

    def test_positive_draws(self, rng):
        assert np.all(sample_pg_array(np.linspace(0, 10, 100), rng) > 0)

    @pytest.mark.parametrize("b", [2, 4])
    def test_shape_b_mean(self, b, rng):
        """PG(b, z) as a sum of b exact PG(1, z) draws (``sample_pg``)."""
        draws = np.array([sample_pg(b, 1.5, rng) for _ in range(6000)])
        expected = pg_mean(b, 1.5)
        tolerance = 4 * np.sqrt(pg_variance(b, 1.5) / len(draws))
        assert abs(draws.mean() - expected) < tolerance

    @given(z=st.floats(0.0, 1000.0))
    @settings(max_examples=30, deadline=None)
    def test_draw_is_finite_positive(self, z):
        draw = sample_pg_array(np.array([z]), np.random.default_rng(0))[0]
        assert np.isfinite(draw) and draw > 0

    @pytest.mark.parametrize("compiled", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_z_rejected(self, bad, compiled, rng):
        with pytest.raises(ValueError, match="finite"):
            sample_pg_array(np.array([0.5, bad]), rng, compiled=compiled)

    # z = 3.125 is the body's switch from chi to inverse-Gaussian trials
    @pytest.mark.parametrize("compiled", [False, True])
    @pytest.mark.parametrize(
        "z", [0.0, 0.3, 1.0, 1.6, 2.5, 3.125, 5.0, 12.0, 40.0, 100.0, 300.0]
    )
    def test_moments_on_z_grid(self, z, compiled):
        draws = sample_pg_array(
            np.full(40000, z), np.random.default_rng(11), compiled=compiled
        )
        mean, variance = pg_mean(1, z), pg_variance(1, z)
        assert abs(draws.mean() - mean) < 4.5 * np.sqrt(variance / len(draws))
        # standard error of the sample variance from the sample's own 4th moment
        centred = draws - draws.mean()
        fourth = np.mean(centred**4)
        se_var = np.sqrt((fourth - draws.var() ** 2) / len(draws))
        assert abs(draws.var() - variance) < 4.5 * se_var

    @pytest.mark.parametrize("z", [0.5, 2.5, 8.0, 100.0])
    def test_two_sample_ks_against_scalar_spec(self, z):
        from scipy.stats import ks_2samp

        array_draws = sample_pg_array(np.full(3000, z), np.random.default_rng(21))
        spec_rng = np.random.default_rng(22)
        spec_draws = np.array([sample_pg1(z, spec_rng) for _ in range(3000)])
        assert ks_2samp(array_draws, spec_draws).pvalue > 1e-3


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array(0.0)) == pytest.approx(0.5)

    def test_extremes_stable(self):
        values = sigmoid(np.array([-1000.0, 1000.0]))
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[1] == pytest.approx(1.0, abs=1e-12)

    def test_equals_the_two_branch_form_bit_for_bit(self):
        # 1/(1+exp(-x)) at x >= 0 and exp(x)/(1+exp(x)) below, each branch
        # computed on its own, as the compiled Newton solver does
        x = np.random.default_rng(3).normal(0.0, 20.0, 5000)
        x = np.concatenate([x, [0.0, -0.0, 745.0, -745.0, 800.0, -800.0]])
        expected = np.empty_like(x)
        positive = x >= 0
        expected[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
        exp_x = np.exp(x[~positive])
        expected[~positive] = exp_x / (1.0 + exp_x)
        np.testing.assert_array_equal(sigmoid(x), expected)
        assert sigmoid(np.array(0.5)).shape == ()

    def test_symmetry(self):
        x = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, rtol=1e-12)

    @given(st.floats(-500, 500))
    @settings(max_examples=50, deadline=None)
    def test_in_unit_interval(self, x):
        assert 0.0 <= sigmoid(np.array(x)) <= 1.0


class TestLogPsi:
    def test_formula(self):
        # psi(w, x) = exp(w/2 - x w^2 / 2)
        assert log_psi(2.0, 0.5) == pytest.approx(2.0 / 2 - 0.5 * 4.0 / 2)

    def test_vectorised(self):
        w = np.array([0.0, 1.0])
        x = np.array([1.0, 1.0])
        np.testing.assert_allclose(log_psi(w, x), [0.0, 0.5 - 0.5])

    def test_mixture_identity(self, rng):
        """Eq. 7: E_x[psi(w, x)] / 2 equals the sigmoid (Monte-Carlo check)."""
        w = 1.2
        draws = np.array([sample_pg1(0.0, rng) for _ in range(20000)])
        estimate = 0.5 * np.exp(log_psi(w, draws)).mean()
        assert estimate == pytest.approx(sigmoid(np.array(w)), rel=0.05)
