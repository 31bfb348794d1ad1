"""Tests for graph subsampling (the Fig. 10(a) scalability substrate)."""

import numpy as np
import pytest

from repro.datasets import subsample_graph


class TestSubsampleGraph:
    def test_full_fraction_is_identity(self, twitter_tiny):
        graph, _ = twitter_tiny
        assert subsample_graph(graph, 1.0) is graph

    def test_document_count_scales(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        half = subsample_graph(graph, 0.5, rng)
        assert half.n_documents == round(0.5 * graph.n_documents)

    def test_link_counts_bounded_by_fraction(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        half = subsample_graph(graph, 0.5, rng)
        assert half.n_friendship_links <= round(0.5 * graph.n_friendship_links)
        assert half.n_diffusion_links <= round(0.5 * graph.n_diffusion_links)

    def test_graph_is_valid(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        sub = subsample_graph(graph, 0.4, rng)
        # validation runs in the constructor; spot-check the invariants here
        assert all(doc.doc_id == i for i, doc in enumerate(sub.documents))
        assert all(user.user_id == i for i, user in enumerate(sub.users))
        for user in sub.users:
            assert user.doc_ids, "users without documents must be dropped"

    def test_links_reference_surviving_entities(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        sub = subsample_graph(graph, 0.3, rng)
        for link in sub.friendship_links:
            assert 0 <= link.source < sub.n_users
            assert 0 <= link.target < sub.n_users
        for link in sub.diffusion_links:
            assert 0 <= link.source_doc < sub.n_documents

    def test_vocabulary_shared(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        sub = subsample_graph(graph, 0.5, rng)
        assert sub.vocabulary is graph.vocabulary

    def test_deterministic(self, twitter_tiny):
        graph, _ = twitter_tiny
        a = subsample_graph(graph, 0.5, rng=4)
        b = subsample_graph(graph, 0.5, rng=4)
        assert a.stats() == b.stats()

    def test_invalid_fraction(self, twitter_tiny):
        graph, _ = twitter_tiny
        with pytest.raises(ValueError):
            subsample_graph(graph, 0.0)
        with pytest.raises(ValueError):
            subsample_graph(graph, 1.5)

    def test_monotone_sizes(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        quarter = subsample_graph(graph, 0.25, 1)
        half = subsample_graph(graph, 0.5, 1)
        assert quarter.n_documents < half.n_documents <= graph.n_documents

    def test_cpd_fits_on_subsample(self, twitter_tiny):
        """The scalability experiment's actual use of subsampled graphs."""
        from repro.core import CPDConfig, CPDModel

        graph, _ = twitter_tiny
        sub = subsample_graph(graph, 0.5, rng=2)
        config = CPDConfig(n_communities=3, n_topics=6, n_iterations=2, rho=0.5, alpha=0.5)
        result = CPDModel(config, rng=0).fit(sub)
        assert result.pi.shape == (sub.n_users, 3)
