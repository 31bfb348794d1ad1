"""Tests for repro.sampling.rng."""

import numpy as np
import pytest

from repro.sampling import ensure_rng


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(7).random(5)
        b = ensure_rng(7).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.allclose(ensure_rng(1).random(5), ensure_rng(2).random(5))

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_numpy_integer_seed(self):
        assert isinstance(ensure_rng(np.int64(3)), np.random.Generator)

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")
