"""Tests for the multiplicity-split word layout the sweep kernels share."""

import numpy as np
import pytest

from repro.core import CPDConfig, DiffusionParameters
from repro.core import _compiled
from repro.core.gibbs import CPDSampler
from repro.core.layout import split_word_multiplicity
from repro.graph.social_graph import counts_to_indptr, unique_word_csr

#: the layout lives on the compiled kernel; without a toolchain a
#: "compiled" sampler runs the reference kernel, which keeps none
needs_backend = pytest.mark.skipif(
    not _compiled.backend_status()[0], reason="no C toolchain on this host"
)

@pytest.fixture(scope="module")
def layout_setup(twitter_tiny):
    graph, _ = twitter_tiny
    config = CPDConfig(
        n_communities=4, n_topics=8, n_iterations=5, rho=0.5, alpha=0.5,
        sweep_kernel="compiled",
    )
    params = DiffusionParameters.initial(4, 8)
    return CPDSampler(graph, config, params, rng=3)


class TestSplitWordMultiplicity:
    def test_partitions_by_count(self):
        # three documents: {2, 5 x3, 9}, {7 x2} and an empty one
        split = split_word_multiplicity(
            np.array([2, 5, 9, 7]), np.array([1.0, 3.0, 1.0, 2.0]), np.array([0, 3, 4, 4])
        )
        np.testing.assert_array_equal(split["ws_words"], [2, 9])
        np.testing.assert_array_equal(split["wm_words"], [5, 7])
        np.testing.assert_array_equal(split["wm_counts"], [3.0, 2.0])
        np.testing.assert_array_equal(split["ws_indptr"], [0, 2, 2, 2])
        np.testing.assert_array_equal(split["wm_indptr"], [0, 1, 2, 2])

    @needs_backend
    def test_matches_kernel_layout(self, layout_setup):
        sampler = layout_setup
        state = sampler.state
        split = split_word_multiplicity(
            state._unique_words, state._unique_counts, state._unique_indptr
        )
        kernel = sampler.kernel
        np.testing.assert_array_equal(split["ws_words"], kernel.ws_words)
        np.testing.assert_array_equal(split["wm_counts"], kernel.wm_counts)


class TestUniqueWordCsr:
    def test_matches_per_document_unique(self):
        rng = np.random.default_rng(0)
        lengths = rng.integers(0, 12, size=60)  # includes empty documents
        words = rng.integers(0, 15, size=int(lengths.sum()))
        unique_words, counts, indptr = unique_word_csr(words, lengths)
        assert counts.dtype == np.float64 and indptr.shape == (61,)
        bounds = counts_to_indptr(lengths)
        for doc in range(60):
            expected_words, expected_counts = np.unique(
                words[bounds[doc] : bounds[doc + 1]], return_counts=True
            )
            span = slice(indptr[doc], indptr[doc + 1])
            np.testing.assert_array_equal(unique_words[span], expected_words)
            np.testing.assert_array_equal(counts[span], expected_counts)

    def test_empty_corpus(self):
        unique_words, counts, indptr = unique_word_csr(
            np.zeros(0, dtype=np.int64), np.zeros(3, dtype=np.int64)
        )
        assert unique_words.size == counts.size == 0
        np.testing.assert_array_equal(indptr, [0, 0, 0, 0])

    def test_state_views_match_per_document_unique(self, layout_setup):
        state = layout_setup.state
        for doc in range(state.n_docs):
            tokens = slice(state._word_indptr[doc], state._word_indptr[doc + 1])
            words, counts = np.unique(state._all_words[tokens], return_counts=True)
            span = slice(state._unique_indptr[doc], state._unique_indptr[doc + 1])
            np.testing.assert_array_equal(state._unique_words[span], words)
            np.testing.assert_array_equal(state._unique_counts[span], counts)

    @needs_backend
    def test_appended_documents_extend_the_csr_and_kernel_layout(self, twitter_tiny):
        graph, _ = twitter_tiny
        config = CPDConfig(
            n_communities=4, n_topics=8, n_iterations=5, rho=0.5, alpha=0.5,
            sweep_kernel="compiled",
        )
        sampler = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=3)
        documents = [np.array([1, 4, 1]), np.zeros(0, dtype=np.int64), np.array([3])]
        new_ids = sampler.append_documents(documents, [0, 1, 2], [0, 0, 0])
        state = sampler.state
        for doc, words in zip(new_ids.tolist(), documents):
            expected_words, expected_counts = np.unique(words, return_counts=True)
            span = slice(state._unique_indptr[doc], state._unique_indptr[doc + 1])
            np.testing.assert_array_equal(state._unique_words[span], expected_words)
            np.testing.assert_array_equal(state._unique_counts[span], expected_counts)
        split = split_word_multiplicity(
            state._unique_words, state._unique_counts, state._unique_indptr
        )
        kernel = sampler.kernel
        for name in ("ws_words", "ws_indptr", "wm_words", "wm_indptr", "wm_counts"):
            np.testing.assert_array_equal(getattr(kernel, name), split[name])
