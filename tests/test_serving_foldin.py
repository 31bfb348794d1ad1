"""Tests for frozen-model fold-in inference."""

import numpy as np
import pytest

from repro.serving import fold_in_documents


class TestFoldInAgreement:
    def test_matches_full_fit_assignments(self, fitted_cpd, twitter_tiny):
        """ISSUE 2 acceptance: >=80% agreement with the full fit.

        Every document of the matched-seed scenario is treated as held out
        and folded back in against the frozen model; the recovered
        communities must agree with the offline Gibbs assignments on at
        least 80% of documents (the chains are exchangeable up to posterior
        uncertainty, so agreement is high but not exact).
        """
        graph, _ = twitter_tiny
        documents = [doc.words for doc in graph.documents]
        users = [doc.user_id for doc in graph.documents]
        fold = fold_in_documents(
            fitted_cpd, documents, users=users, n_sweeps=30, burn_in=5, rng=0
        )
        community_agreement = float(
            np.mean(fold.communities == fitted_cpd.doc_community)
        )
        topic_agreement = float(np.mean(fold.topics == fitted_cpd.doc_topic))
        assert community_agreement >= 0.8, f"community agreement {community_agreement:.3f}"
        assert topic_agreement >= 0.8, f"topic agreement {topic_agreement:.3f}"

    def test_posteriors_are_distributions(self, fitted_cpd, twitter_tiny):
        graph, _ = twitter_tiny
        documents = [doc.words for doc in graph.documents[:10]]
        users = [doc.user_id for doc in graph.documents[:10]]
        fold = fold_in_documents(fitted_cpd, documents, users=users, rng=1)
        np.testing.assert_allclose(fold.community_posterior.sum(axis=1), 1.0)
        np.testing.assert_allclose(fold.topic_posterior.sum(axis=1), 1.0)
        assert np.all(fold.community_posterior >= 0.0)

    def test_map_assignment_consistent_with_posterior(self, fitted_cpd, twitter_tiny):
        graph, _ = twitter_tiny
        documents = [doc.words for doc in graph.documents[:10]]
        fold = fold_in_documents(fitted_cpd, documents, rng=2)
        np.testing.assert_array_equal(
            fold.communities, np.argmax(fold.community_posterior, axis=1)
        )
        np.testing.assert_array_equal(
            fold.topics, np.argmax(fold.topic_posterior, axis=1)
        )


class TestFoldInMechanics:
    def test_deterministic_under_seed(self, fitted_cpd, twitter_tiny):
        graph, _ = twitter_tiny
        documents = [doc.words for doc in graph.documents[:20]]
        users = [doc.user_id for doc in graph.documents[:20]]
        first = fold_in_documents(fitted_cpd, documents, users=users, rng=7)
        second = fold_in_documents(fitted_cpd, documents, users=users, rng=7)
        np.testing.assert_array_equal(first.communities, second.communities)
        np.testing.assert_array_equal(first.topics, second.topics)

    def test_unknown_user_gets_uniform_prior(self, fitted_cpd):
        words = np.asarray([0, 1, 2], dtype=np.int64)
        fold = fold_in_documents(
            fitted_cpd, [words, words], users=[None, -1], n_sweeps=10, rng=3
        )
        assert len(fold) == 2
        assert fold.communities.shape == (2,)

    def test_known_user_prior_steers_community(self, fitted_cpd, twitter_tiny):
        """An empty document must follow the user's membership prior."""
        graph, _ = twitter_tiny
        user = 0
        empty = np.zeros(0, dtype=np.int64)
        fold = fold_in_documents(
            fitted_cpd, [empty], users=[user], n_sweeps=200, burn_in=20, rng=4
        )
        # the sampled marginal should put most mass near pi[user]
        top_prior = int(np.argmax(fitted_cpd.pi[user]))
        assert fold.community_posterior[0, top_prior] >= 0.25

    def test_empty_batch(self, fitted_cpd):
        fold = fold_in_documents(fitted_cpd, [], users=None, rng=5)
        assert len(fold) == 0
        assert fold.community_posterior.shape == (0, fitted_cpd.n_communities)

    def test_out_of_vocabulary_raises(self, fitted_cpd):
        with pytest.raises(ValueError, match="out-of-vocabulary"):
            fold_in_documents(fitted_cpd, [np.asarray([10**6])], rng=6)

    def test_mismatched_users_raises(self, fitted_cpd):
        with pytest.raises(ValueError, match="align"):
            fold_in_documents(
                fitted_cpd, [np.zeros(1, dtype=np.int64)], users=[0, 1], rng=6
            )

    def test_unknown_user_id_raises(self, fitted_cpd):
        with pytest.raises(ValueError, match="outside"):
            fold_in_documents(
                fitted_cpd, [np.zeros(1, dtype=np.int64)], users=[10**6], rng=6
            )

    def test_invalid_sweep_schedule(self, fitted_cpd):
        with pytest.raises(ValueError):
            fold_in_documents(fitted_cpd, [], n_sweeps=0)
        with pytest.raises(ValueError):
            fold_in_documents(fitted_cpd, [], n_sweeps=5, burn_in=5)

class TestStoreFoldIn:
    def test_token_documents_are_encoded(self, fitted_cpd, twitter_tiny):
        from repro.serving import ProfileStore

        graph, _ = twitter_tiny
        store = ProfileStore.from_fit(fitted_cpd, graph)
        doc = graph.documents[0]
        tokens = [graph.vocabulary.word_of(int(w)) for w in doc.words]
        by_tokens = store.fold_in(
            [tokens], users=[doc.user_id], n_sweeps=15, rng=9
        )
        by_ids = store.fold_in(
            [doc.words], users=[doc.user_id], n_sweeps=15, rng=9
        )
        np.testing.assert_array_equal(by_tokens.communities, by_ids.communities)
        np.testing.assert_array_equal(by_tokens.topics, by_ids.topics)
