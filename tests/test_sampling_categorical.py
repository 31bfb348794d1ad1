"""Tests for repro.sampling.categorical (incl. hypothesis properties)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sampling import (
    log_normalize,
    normalize,
    sample_categorical,
    sample_log_categorical,
    sample_many_categorical,
    sample_many_log_categorical,
)
from repro.sampling.categorical import draw_log_categorical_from_uniform


class TestSampleCategorical:
    def test_degenerate_distribution(self, rng):
        weights = np.array([0.0, 1.0, 0.0])
        assert all(sample_categorical(weights, rng) == 1 for _ in range(20))

    def test_respects_proportions(self, rng):
        weights = np.array([1.0, 3.0])
        draws = np.array([sample_categorical(weights, rng) for _ in range(4000)])
        assert 0.70 < draws.mean() < 0.80  # expect 0.75

    def test_unnormalised_ok(self, rng):
        weights = np.array([100.0, 300.0])
        draws = np.array([sample_categorical(weights, rng) for _ in range(4000)])
        assert 0.70 < draws.mean() < 0.80

    def test_rejects_all_zero(self, rng):
        with pytest.raises(ValueError):
            sample_categorical(np.zeros(3), rng)

    def test_rejects_negative(self, rng):
        with pytest.raises(ValueError):
            sample_categorical(np.array([0.5, -0.1]), rng)

    def test_rejects_nan(self, rng):
        with pytest.raises(ValueError):
            sample_categorical(np.array([0.5, np.nan]), rng)

    def test_rejects_matrix(self, rng):
        with pytest.raises(ValueError):
            sample_categorical(np.ones((2, 2)), rng)

    @given(
        weights=arrays(
            np.float64,
            st.integers(1, 20),
            elements=st.floats(0.0, 100.0),
        ).filter(lambda w: w.sum() > 0)
    )
    @settings(max_examples=50, deadline=None)
    def test_always_in_range(self, weights):
        index = sample_categorical(weights, np.random.default_rng(0))
        assert 0 <= index < len(weights)
        assert weights[index] > 0  # zero-weight outcomes are never drawn


class TestSampleLogCategorical:
    def test_matches_linear_space(self, rng):
        weights = np.array([0.2, 0.8])
        draws = np.array(
            [sample_log_categorical(np.log(weights), rng) for _ in range(4000)]
        )
        assert 0.75 < draws.mean() < 0.85

    def test_handles_large_negative_logs(self, rng):
        log_weights = np.array([-1000.0, -1001.0, -5000.0])
        draws = [sample_log_categorical(log_weights, rng) for _ in range(50)]
        assert all(d in (0, 1) for d in draws)

    def test_handles_neg_inf_entries(self, rng):
        log_weights = np.array([-np.inf, 0.0])
        assert all(sample_log_categorical(log_weights, rng) == 1 for _ in range(20))

    def test_all_neg_inf_raises(self, rng):
        with pytest.raises(ValueError):
            sample_log_categorical(np.array([-np.inf, -np.inf]), rng)


class TestSampleManyCategorical:
    def test_shape(self, rng):
        rows = np.ones((5, 3))
        out = sample_many_categorical(rows, rng)
        assert out.shape == (5,)
        assert np.all((out >= 0) & (out < 3))

    def test_deterministic_rows(self, rng):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = sample_many_categorical(rows, rng)
        np.testing.assert_array_equal(out, [0, 1])

    def test_zero_row_raises(self, rng):
        with pytest.raises(ValueError):
            sample_many_categorical(np.array([[1.0, 1.0], [0.0, 0.0]]), rng)

    def test_rejects_1d(self, rng):
        with pytest.raises(ValueError):
            sample_many_categorical(np.ones(3), rng)


class TestDrawLogCategorical:
    """The compiled kernel's draw contract, as its pure-Python function of
    one uniform, matches sample_log_categorical (the reference kernel's
    draw) draw-for-draw."""

    @pytest.mark.parametrize("size", [2, 6, 12, 33, 100])
    def test_matches_validating_draw_with_same_seed(self, size):
        log_weights = np.random.default_rng(size).normal(size=size) * 3.0
        for seed in range(40):
            checked = sample_log_categorical(
                log_weights.copy(), np.random.default_rng(seed)
            )
            uniform = np.random.default_rng(seed).random()
            assert checked == draw_log_categorical_from_uniform(log_weights, uniform)

    def test_respects_proportions(self):
        rng = np.random.default_rng(0)
        log_weights = np.log(np.array([0.2, 0.8]))
        draws = [
            draw_log_categorical_from_uniform(log_weights, rng.random())
            for _ in range(4000)
        ]
        assert 0.75 < np.mean(draws) < 0.85

    def test_degenerate_distribution(self):
        rng = np.random.default_rng(0)
        log_weights = np.array([-1e9, 0.0, -1e9])
        assert all(
            draw_log_categorical_from_uniform(log_weights, rng.random()) == 1
            for _ in range(20)
        )

    def test_large_array_path_shift_invariant(self):
        base = np.random.default_rng(1).normal(size=64)
        uniform = np.random.default_rng(3).random()
        a = draw_log_categorical_from_uniform(base + 700.0, uniform)
        b = draw_log_categorical_from_uniform(base - 700.0, uniform)
        assert a == b


class TestSampleManyLogCategorical:
    def test_shape_and_range(self, rng):
        rows = np.log(np.ones((5, 3)))
        out = sample_many_log_categorical(rows, rng)
        assert out.shape == (5,)
        assert np.all((out >= 0) & (out < 3))

    def test_matches_rowwise_single_draws_in_distribution(self):
        rows = np.log(np.array([[0.2, 0.8], [0.9, 0.1]]))
        draws = np.stack(
            [
                sample_many_log_categorical(rows, np.random.default_rng(seed))
                for seed in range(3000)
            ]
        )
        assert 0.75 < draws[:, 0].mean() < 0.85
        assert 0.05 < draws[:, 1].mean() < 0.15

    def test_neg_inf_entries_never_drawn(self, rng):
        rows = np.array([[-np.inf, 0.0], [0.0, -np.inf]])
        for _ in range(20):
            np.testing.assert_array_equal(
                sample_many_log_categorical(rows, rng), [1, 0]
            )

    def test_all_neg_inf_row_raises(self, rng):
        with pytest.raises(ValueError):
            sample_many_log_categorical(
                np.array([[0.0, 0.0], [-np.inf, -np.inf]]), rng
            )

    def test_nan_treated_as_zero_weight(self, rng):
        # matches sample_log_categorical: non-finite entries get no mass
        rows = np.array([[0.0, np.nan]])
        for _ in range(20):
            assert sample_many_log_categorical(rows, rng)[0] == 0

    def test_rejects_1d(self, rng):
        with pytest.raises(ValueError):
            sample_many_log_categorical(np.zeros(3), rng)

    def test_shift_invariance(self, rng):
        rows = np.random.default_rng(2).normal(size=(4, 6))
        a = sample_many_log_categorical(rows + 900.0, np.random.default_rng(5))
        b = sample_many_log_categorical(rows - 900.0, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestNormalize:
    def test_sums_to_one(self):
        out = normalize(np.array([1.0, 3.0]))
        np.testing.assert_allclose(out.sum(), 1.0)
        np.testing.assert_allclose(out, [0.25, 0.75])

    def test_zero_rows_become_uniform(self):
        out = normalize(np.array([[0.0, 0.0], [2.0, 2.0]]))
        np.testing.assert_allclose(out[0], [0.5, 0.5])
        np.testing.assert_allclose(out[1], [0.5, 0.5])

    def test_axis_zero(self):
        out = normalize(np.array([[1.0, 0.0], [3.0, 0.0]]), axis=0)
        np.testing.assert_allclose(out[:, 0], [0.25, 0.75])
        np.testing.assert_allclose(out[:, 1], [0.5, 0.5])

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=st.floats(0.0, 1e6),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_rows_always_sum_to_one(self, matrix):
        out = normalize(matrix)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-9)


class TestLogNormalize:
    def test_matches_softmax(self):
        logs = np.array([0.0, np.log(3.0)])
        np.testing.assert_allclose(log_normalize(logs), [0.25, 0.75])

    def test_shift_invariance(self):
        logs = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(log_normalize(logs), log_normalize(logs + 500.0))
