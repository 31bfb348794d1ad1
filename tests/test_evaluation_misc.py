"""Tests for perplexity, cross-validation, significance, queries and NMI."""

import numpy as np
import pytest

from repro.evaluation import (
    content_perplexity,
    diffusion_auc_folds,
    friendship_auc_folds,
    nmi_matrix,
    normalized_mutual_information,
    paired_one_tailed_ttest,
    queries_by_frequency_band,
    select_queries,
)


class TestPerplexity:
    def test_better_profile_scores_lower(self, twitter_tiny, fitted_cpd):
        graph, _ = twitter_tiny
        fitted = content_perplexity(graph, fitted_cpd.pi, fitted_cpd.theta, fitted_cpd.phi)
        # uniform profile: every word equally likely
        n_c, n_z, n_w = 4, 8, graph.n_words
        uniform = content_perplexity(
            graph,
            np.full((graph.n_users, n_c), 1 / n_c),
            np.full((n_c, n_z), 1 / n_z),
            np.full((n_z, n_w), 1 / n_w),
        )
        assert fitted < uniform
        assert uniform == pytest.approx(n_w, rel=1e-6)

    def test_subset_of_documents(self, twitter_tiny, fitted_cpd):
        graph, _ = twitter_tiny
        value = content_perplexity(
            graph, fitted_cpd.pi, fitted_cpd.theta, fitted_cpd.phi, doc_ids=np.arange(10)
        )
        assert value > 0

    def test_shape_validation(self, twitter_tiny, fitted_cpd):
        graph, _ = twitter_tiny
        with pytest.raises(ValueError):
            content_perplexity(graph, fitted_cpd.pi[:3], fitted_cpd.theta, fitted_cpd.phi)


class TestFoldedAUC:
    def test_diffusion_folds(self, twitter_tiny, rng):
        graph, _ = twitter_tiny

        def oracle(src, tgt, t):
            return np.ones(len(src))  # constant scores -> AUC 0.5 by ties

        folded = diffusion_auc_folds(graph, oracle, n_folds=5, rng=rng)
        assert folded.n_folds == 5
        assert folded.mean == pytest.approx(0.5)

    def test_friendship_folds_perfect_oracle(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        observed = graph.friendship_pairs()

        def oracle(src, tgt):
            return np.asarray(
                [1.0 if (u, v) in observed else 0.0 for u, v in zip(src, tgt)]
            )

        folded = friendship_auc_folds(graph, oracle, n_folds=5, rng=rng)
        assert folded.mean == 1.0


class TestSignificance:
    def test_paired_detects_improvement(self, rng):
        baseline = rng.normal(0.7, 0.01, size=10)
        ours = baseline + 0.05 + rng.normal(0.0, 0.005, size=10)
        result = paired_one_tailed_ttest(ours, baseline)
        assert result.significant(0.01)
        assert result.mean_difference == pytest.approx(0.05, abs=0.02)

    def test_paired_no_improvement(self, rng):
        baseline = rng.normal(0.7, 0.01, size=10)
        ours = baseline - 0.05 + rng.normal(0.0, 0.005, size=10)
        result = paired_one_tailed_ttest(ours, baseline)
        assert not result.significant(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_one_tailed_ttest(np.ones(3), np.ones(2))
        with pytest.raises(ValueError):
            paired_one_tailed_ttest(np.ones(1), np.ones(1))


class TestQueries:
    def test_twitter_hashtag_queries(self, twitter_tiny):
        graph, _ = twitter_tiny
        queries = select_queries(graph, min_frequency=2, hashtags_only=True)
        assert queries
        assert all(q.term.startswith("#") for q in queries)
        assert all(q.frequency >= 2 for q in queries)

    def test_relevant_users_really_diffuse(self, twitter_tiny):
        graph, _ = twitter_tiny
        queries = select_queries(graph, min_frequency=2, hashtags_only=True)
        sources = {l.source_doc for l in graph.diffusion_links}
        query = queries[0]
        for user in query.relevant_users:
            user_docs = set(graph.documents_of(int(user)))
            diffusing = user_docs & sources
            assert any(
                query.word_id in graph.documents[d].words for d in diffusing
            )

    def test_top_frequent_removed(self, dblp_tiny):
        graph, _ = dblp_tiny
        all_queries = select_queries(graph, min_frequency=2)
        banned_terms = {w for w, _c in graph.vocabulary.top_words(10)}
        filtered = select_queries(graph, min_frequency=2, remove_top_frequent=10)
        assert all(q.term not in banned_terms for q in filtered)
        assert len(filtered) <= len(all_queries)

    def test_max_queries(self, dblp_tiny):
        graph, _ = dblp_tiny
        queries = select_queries(graph, min_frequency=1, max_queries=3)
        assert len(queries) == 3

    def test_frequency_bands_partition(self, dblp_tiny):
        graph, _ = dblp_tiny
        queries = select_queries(graph, min_frequency=1, max_queries=40)
        bands = queries_by_frequency_band(queries, n_bands=5)
        assert sum(len(b) for b in bands) == len(queries)

    def test_empty_graph_queries(self, twitter_tiny):
        from repro.graph import SocialGraph

        graph, _ = twitter_tiny
        no_links = SocialGraph(
            users=graph.users, documents=graph.documents,
            friendship_links=graph.friendship_links, diffusion_links=[],
            vocabulary=graph.vocabulary,
        )
        assert select_queries(no_links) == []


class TestNMI:
    def test_identical_partitions(self):
        labels = np.array([0, 0, 1, 1, 2])
        assert normalized_mutual_information(labels, labels) == pytest.approx(1.0)

    def test_permuted_labels_still_perfect(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([5, 5, 2, 2])
        assert normalized_mutual_information(a, b) == pytest.approx(1.0)

    def test_independent_partitions_near_zero(self, rng):
        a = rng.integers(0, 4, size=4000)
        b = rng.integers(0, 4, size=4000)
        assert normalized_mutual_information(a, b) < 0.01

    def test_symmetry(self, rng):
        a = rng.integers(0, 3, size=100)
        b = rng.integers(0, 3, size=100)
        assert normalized_mutual_information(a, b) == pytest.approx(
            normalized_mutual_information(b, a)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            normalized_mutual_information(np.ones(3), np.ones(2))
        with pytest.raises(ValueError):
            normalized_mutual_information(np.array([]), np.array([]))


class TestNMIMatrix:
    def test_matches_looped_scalar_nmi(self, rng):
        reference = rng.integers(0, 5, size=300)
        candidates = [rng.integers(0, k, size=300) for k in (2, 3, 5, 8)]
        candidates.append(reference.copy())
        batched = nmi_matrix(reference, candidates)
        looped = [
            normalized_mutual_information(reference, candidate)
            for candidate in candidates
        ]
        np.testing.assert_allclose(batched, looped, rtol=1e-12)

    def test_accepts_2d_array_and_single_vector(self, rng):
        reference = rng.integers(0, 3, size=50)
        stacked = np.stack([reference, (reference + 1) % 3])
        scores = nmi_matrix(reference, stacked)
        assert scores.shape == (2,)
        assert scores == pytest.approx([1.0, 1.0])  # relabelling is NMI-invariant
        single = nmi_matrix(reference, reference)
        assert single.shape == (1,)
        assert single[0] == pytest.approx(1.0)

    def test_noncontiguous_label_values(self):
        reference = np.array([7, 7, -2, -2, 100, 100])
        candidate = np.array([1, 1, 4, 4, 9, 9])
        assert nmi_matrix(reference, [candidate])[0] == pytest.approx(1.0)

    def test_degenerate_single_cluster(self):
        reference = np.zeros(10, dtype=np.int64)
        scores = nmi_matrix(reference, [np.zeros(10), np.arange(10)])
        assert scores[0] == pytest.approx(1.0)  # both degenerate
        assert scores[1] == pytest.approx(0.0)  # one-sided degenerate

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            nmi_matrix(np.array([]), [np.array([])])
        with pytest.raises(ValueError):
            nmi_matrix(np.ones(3, dtype=np.int64), [np.ones(2, dtype=np.int64)])
        with pytest.raises(ValueError):
            nmi_matrix(np.ones((2, 2), dtype=np.int64), [np.ones(4, dtype=np.int64)])
