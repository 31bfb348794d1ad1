"""Tests for the multiplicity-split word layout the sweep kernels share."""

import numpy as np
import pytest

from repro.core import CPDConfig, DiffusionParameters
from repro.core.gibbs import CPDSampler
from repro.core.layout import split_word_multiplicity


@pytest.fixture(scope="module")
def layout_setup(twitter_tiny):
    graph, _ = twitter_tiny
    config = CPDConfig(n_communities=4, n_topics=8, n_iterations=5, rho=0.5, alpha=0.5)
    params = DiffusionParameters.initial(4, 8)
    return CPDSampler(graph, config, params, rng=3)


class TestSplitWordMultiplicity:
    def test_partitions_by_count(self):
        doc_unique = [
            (np.array([2, 5, 9]), np.array([1.0, 3.0, 1.0])),
            (np.array([7]), np.array([2.0])),
            (np.zeros(0, dtype=np.int64), np.zeros(0)),
        ]
        split = split_word_multiplicity(doc_unique)
        np.testing.assert_array_equal(split["ws_words"], [2, 9])
        np.testing.assert_array_equal(split["wm_words"], [5, 7])
        np.testing.assert_array_equal(split["wm_counts"], [3.0, 2.0])
        np.testing.assert_array_equal(split["ws_indptr"], [0, 2, 2, 2])
        np.testing.assert_array_equal(split["wm_indptr"], [0, 1, 2, 2])

    def test_matches_kernel_layout(self, layout_setup):
        sampler = layout_setup
        split = split_word_multiplicity(sampler._doc_unique)
        kernel = sampler.kernel
        np.testing.assert_array_equal(split["ws_words"], kernel.ws_words)
        np.testing.assert_array_equal(split["wm_counts"], kernel.wm_counts)
