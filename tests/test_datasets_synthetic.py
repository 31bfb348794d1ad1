"""Tests for the planted-profile generator and scenario flavours."""

import numpy as np
import pytest

from repro.datasets import (
    DBLP_SCALES,
    TWITTER_SCALES,
    SyntheticConfig,
    dblp_config,
    dblp_scenario,
    generate_synthetic,
    twitter_config,
    twitter_scenario,
)


class TestConfigValidation:
    def test_defaults_valid(self):
        SyntheticConfig()

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_communities=0)
        with pytest.raises(ValueError):
            SyntheticConfig(n_users=1)
        with pytest.raises(ValueError):
            SyntheticConfig(conforming_fraction=1.5)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            twitter_config("galactic")
        with pytest.raises(ValueError):
            dblp_config("galactic")


class TestGeneratedGraph:
    def test_reproducible_from_seed(self):
        a, _ = generate_synthetic(SyntheticConfig(n_users=30, n_friendship_links=100,
                                                  n_diffusion_links=50), rng=3)
        b, _ = generate_synthetic(SyntheticConfig(n_users=30, n_friendship_links=100,
                                                  n_diffusion_links=50), rng=3)
        assert a.stats() == b.stats()
        np.testing.assert_array_equal(a.documents[0].words, b.documents[0].words)

    def test_every_user_has_documents(self, twitter_tiny):
        graph, _ = twitter_tiny
        assert all(len(graph.documents_of(u)) >= 1 for u in range(graph.n_users))

    def test_documents_at_least_two_words(self, twitter_tiny):
        graph, _ = twitter_tiny
        assert all(len(doc.words) >= 2 for doc in graph.documents)

    def test_link_counts_near_target(self, twitter_tiny):
        graph, _ = twitter_tiny
        assert graph.n_friendship_links >= 200  # target 240
        assert graph.n_diffusion_links >= 80  # target 110

    def test_timestamps_in_range(self, twitter_tiny):
        graph, _ = twitter_tiny
        times = [doc.timestamp for doc in graph.documents]
        assert min(times) >= 0 and max(times) < 24


class TestGroundTruth:
    def test_distributions_normalised(self, twitter_tiny):
        _, truth = twitter_tiny
        np.testing.assert_allclose(truth.pi.sum(axis=1), 1.0, rtol=1e-9)
        np.testing.assert_allclose(truth.theta.sum(axis=1), 1.0, rtol=1e-9)
        np.testing.assert_allclose(truth.phi.sum(axis=1), 1.0, rtol=1e-9)

    def test_realized_eta_is_distribution(self, twitter_tiny):
        _, truth = twitter_tiny
        assert truth.eta_realized.sum() == pytest.approx(1.0)

    def test_doc_assignments_cover_documents(self, twitter_tiny):
        graph, truth = twitter_tiny
        assert truth.doc_community.shape == (graph.n_documents,)
        assert truth.doc_topic.shape == (graph.n_documents,)
        assert truth.doc_topic.max() < truth.n_topics

    def test_homophily_planted(self, twitter_tiny):
        """Friendship links should be denser inside planted communities."""
        graph, truth = twitter_tiny
        same = sum(
            1
            for link in graph.friendship_links
            if truth.primary_community[link.source]
            == truth.primary_community[link.target]
        )
        fraction_same = same / graph.n_friendship_links
        # under random linking the expectation is ~1/|C| = 0.25
        assert fraction_same > 0.5

    def test_weak_ties_planted(self, dblp_tiny):
        """Some inter-community diffusion must be stronger than base level."""
        _, truth = dblp_tiny
        eta = truth.eta_intended
        off_diagonal = eta.copy()
        for c in range(truth.n_communities):
            off_diagonal[c, c, :] = 0.0
        assert off_diagonal.max() >= 0.9  # the planted cross entries

    def test_pi_peaks_at_primary(self, twitter_tiny):
        _, truth = twitter_tiny
        agreement = (np.argmax(truth.pi, axis=1) == truth.primary_community).mean()
        assert agreement > 0.8


class TestScenarioFlavours:
    def test_scales_exposed(self):
        assert set(TWITTER_SCALES) == {"tiny", "small", "medium"}
        assert set(DBLP_SCALES) == {"tiny", "small", "medium"}

    def test_twitter_has_hashtags(self, twitter_tiny):
        graph, _ = twitter_tiny
        assert any(word.startswith("#") for word in graph.vocabulary)

    def test_dblp_has_no_hashtags(self, dblp_tiny):
        graph, _ = dblp_tiny
        assert not any(word.startswith("#") for word in graph.vocabulary)

    def test_dblp_citations_point_backwards(self, dblp_tiny):
        graph, _ = dblp_tiny
        for link in graph.diffusion_links:
            source_time = graph.documents[link.source_doc].timestamp
            target_time = graph.documents[link.target_doc].timestamp
            assert target_time <= source_time

    def test_dblp_coauthorship_symmetric(self, dblp_tiny):
        graph, _ = dblp_tiny
        pairs = graph.friendship_pairs()
        assert all((v, u) in pairs for (u, v) in pairs)

    def test_dblp_more_diffusion_than_friendship(self, dblp_tiny):
        graph, _ = dblp_tiny
        assert graph.n_diffusion_links > graph.n_friendship_links

    def test_twitter_more_friendship_than_diffusion(self, twitter_tiny):
        graph, _ = twitter_tiny
        assert graph.n_friendship_links > graph.n_diffusion_links

    def test_twitter_activity_skewed(self):
        graph, _ = twitter_scenario("tiny", rng=5)
        counts = np.array([len(graph.documents_of(u)) for u in range(graph.n_users)])
        assert counts.max() >= 3 * np.median(counts)

    def test_overrides_respected(self):
        graph, _ = dblp_scenario("tiny", rng=0, n_users=30)
        assert graph.n_users <= 30

    def test_no_same_user_diffusion(self, twitter_tiny):
        graph, _ = twitter_tiny
        doc_user = graph.doc_user
        for link in graph.diffusion_links:
            assert doc_user[link.source_doc] != doc_user[link.target_doc]
