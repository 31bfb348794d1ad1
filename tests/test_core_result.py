"""Tests for CPDResult accessors and profile views."""

import numpy as np
import pytest

from repro.core import all_profiles, profile_of


class TestMemberships:
    def test_top_communities_shape(self, fitted_cpd):
        top = fitted_cpd.top_communities_per_user(k=2)
        assert top.shape == (fitted_cpd.n_users, 2)

    def test_top_communities_ordered(self, fitted_cpd):
        top = fitted_cpd.top_communities_per_user(k=2)
        for user in range(5):
            first, second = top[user]
            assert fitted_cpd.pi[user, first] >= fitted_cpd.pi[user, second]

    def test_k_clamped(self, fitted_cpd):
        top = fitted_cpd.top_communities_per_user(k=99)
        assert top.shape[1] == fitted_cpd.n_communities

    def test_community_members_cover_users(self, fitted_cpd):
        members = fitted_cpd.community_members(k=fitted_cpd.n_communities)
        covered = set()
        for group in members:
            covered.update(group.tolist())
        assert covered == set(range(fitted_cpd.n_users))

    def test_hard_assignment(self, fitted_cpd):
        hard = fitted_cpd.hard_community_per_user()
        np.testing.assert_array_equal(hard, np.argmax(fitted_cpd.pi, axis=1))


class TestContentAccessors:
    def test_top_topics_sorted(self, fitted_cpd):
        tops = fitted_cpd.top_topics(0, n=3)
        weights = [w for _z, w in tops]
        assert weights == sorted(weights, reverse=True)

    def test_top_words_with_vocabulary(self, fitted_cpd, twitter_tiny):
        graph, _ = twitter_tiny
        words = fitted_cpd.top_words(0, n=5, vocabulary=graph.vocabulary)
        assert len(words) == 5
        assert all(isinstance(word, str) for word, _p in words)

    def test_word_probability_normalised(self, fitted_cpd):
        # p(w|u) = sum_c pi_uc sum_z theta_cz phi_zw is a distribution per user
        probs = fitted_cpd.pi @ fitted_cpd.theta @ fitted_cpd.phi
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)


class TestDiffusionAccessors:
    def test_aggregated_matrix(self, fitted_cpd):
        matrix = fitted_cpd.aggregated_diffusion_matrix()
        assert matrix.shape == (4, 4)
        assert matrix.sum() == pytest.approx(1.0)

    def test_top_diffused_topics_sorted(self, fitted_cpd):
        tops = fitted_cpd.top_diffused_topics(0, 0, n=3)
        strengths = [s for _z, s in tops]
        assert strengths == sorted(strengths, reverse=True)

    def test_openness_in_unit_interval(self, fitted_cpd):
        for community in range(fitted_cpd.n_communities):
            assert 0.0 <= fitted_cpd.openness(community) <= 1.0


class TestSummary:
    def test_summary_mentions_communities(self, fitted_cpd, twitter_tiny):
        graph, _ = twitter_tiny
        text = fitted_cpd.summary(graph.vocabulary)
        assert "c00" in text
        assert "factor weights" in text


class TestProfiles:
    def test_profile_of_matches_result(self, fitted_cpd):
        profile = profile_of(fitted_cpd, 1)
        np.testing.assert_allclose(profile.content.topics, fitted_cpd.theta[1])
        np.testing.assert_allclose(profile.diffusion.strengths, fitted_cpd.eta[1])

    def test_profile_out_of_range(self, fitted_cpd):
        with pytest.raises(ValueError):
            profile_of(fitted_cpd, 99)

    def test_all_profiles_count(self, fitted_cpd):
        assert len(all_profiles(fitted_cpd)) == fitted_cpd.n_communities

    def test_openness_consistent(self, fitted_cpd):
        profile = profile_of(fitted_cpd, 2)
        assert profile.diffusion.openness() == pytest.approx(fitted_cpd.openness(2))

    def test_content_entropy_positive(self, fitted_cpd):
        profile = profile_of(fitted_cpd, 0)
        assert profile.content.entropy() > 0

    def test_describe_readable(self, fitted_cpd, twitter_tiny):
        graph, _ = twitter_tiny
        text = profile_of(fitted_cpd, 0).describe(fitted_cpd, graph.vocabulary)
        assert "community c0" in text
        assert "openness" in text

    def test_aggregated_diffusion_vector(self, fitted_cpd):
        profile = profile_of(fitted_cpd, 0)
        np.testing.assert_allclose(
            profile.diffusion.aggregated(), fitted_cpd.eta[0].sum(axis=1)
        )
