"""Tests for AUC (incl. hypothesis invariance properties)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.evaluation import auc_score


class TestAucScore:
    def test_perfect_separation(self):
        assert auc_score(np.array([2.0, 3.0]), np.array([0.0, 1.0])) == 1.0

    def test_perfect_inversion(self):
        assert auc_score(np.array([0.0]), np.array([1.0])) == 0.0

    def test_chance_level(self, rng):
        scores = rng.normal(size=2000)
        assert auc_score(scores[:1000], scores[1000:]) == pytest.approx(0.5, abs=0.05)

    def test_ties_get_half_credit(self):
        assert auc_score(np.array([1.0]), np.array([1.0])) == 0.5

    def test_known_value(self):
        # positives [3, 1], negatives [2, 0]: pairs won 3>2, 3>0, 1>0 => 3/4
        assert auc_score(np.array([3.0, 1.0]), np.array([2.0, 0.0])) == 0.75

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            auc_score(np.array([]), np.array([1.0]))

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            auc_score(np.array([np.nan]), np.array([1.0]))

    @given(
        pos=arrays(np.float64, st.integers(1, 30), elements=st.floats(-100, 100)),
        neg=arrays(np.float64, st.integers(1, 30), elements=st.floats(-100, 100)),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounded_and_complementary(self, pos, neg):
        value = auc_score(pos, neg)
        assert 0.0 <= value <= 1.0
        # swapping positives and negatives mirrors the score
        assert auc_score(neg, pos) == pytest.approx(1.0 - value)

    @given(
        # rounding keeps value gaps >= 1e-3, far above float64 noise, so the
        # affine transform below can neither create nor destroy ties
        pos=arrays(
            np.float64, st.integers(1, 20),
            elements=st.floats(-50, 50).map(lambda x: round(x, 3)),
        ),
        neg=arrays(
            np.float64, st.integers(1, 20),
            elements=st.floats(-50, 50).map(lambda x: round(x, 3)),
        ),
        shift=st.sampled_from([-8.0, 0.0, 8.0]),
        scale=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_transform_invariance(self, pos, neg, shift, scale):
        base = auc_score(pos, neg)
        transformed = auc_score(pos * scale + shift, neg * scale + shift)
        assert transformed == pytest.approx(base, abs=1e-9)
