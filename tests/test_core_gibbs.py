"""Tests for the CPD collapsed Gibbs sampler."""

import numpy as np
import pytest

from repro.core import CPDConfig, DiffusionParameters
from repro.core.gibbs import CPDSampler


@pytest.fixture()
def sampler(twitter_tiny, tiny_config):
    graph, _ = twitter_tiny
    params = DiffusionParameters.initial(
        tiny_config.n_communities, tiny_config.n_topics
    )
    return CPDSampler(graph, tiny_config, params, rng=0)


class TestInitialisation:
    def test_all_documents_assigned(self, sampler):
        assert np.all(sampler.state.doc_topic >= 0)
        sampler.state.check_consistency()

    def test_link_structures(self, sampler, twitter_tiny):
        graph, _ = twitter_tiny
        assert sampler.n_friend_links == graph.n_friendship_links
        assert sampler.n_diff_links == graph.n_diffusion_links
        assert sampler.e_features.shape == (graph.n_diffusion_links, 4)

    def test_augmentation_starts_at_pg_mean(self, sampler):
        np.testing.assert_allclose(sampler.lambdas, 0.25)
        np.testing.assert_allclose(sampler.deltas, 0.25)

    def test_popularity_tracks_assignments(self, sampler, twitter_tiny):
        graph, _ = twitter_tiny
        assert sampler.popularity.counts_matrix().sum() == graph.n_documents


class TestSweep:
    def test_sweep_keeps_consistency(self, sampler):
        sampler.sweep_documents()
        sampler.state.check_consistency()
        assert np.all(sampler.state.doc_topic >= 0)

    def test_sweep_subset(self, sampler):
        before = sampler.state.doc_topic.copy()
        sampler.sweep_documents(np.array([0, 1, 2]))
        # untouched documents keep their assignments
        np.testing.assert_array_equal(
            sampler.state.doc_topic[3:], before[3:]
        )

    def test_sweep_accepts_float_and_list_doc_ids(self, sampler):
        sampler.sweep_documents(np.array([0.0, 1.0]))
        sampler.sweep_documents([2, 3])
        sampler.state.check_consistency()

    def test_popularity_in_sync_after_sweep(self, sampler, twitter_tiny):
        graph, _ = twitter_tiny
        sampler.sweep_documents()
        counts = sampler.popularity.counts_matrix()
        assert counts.sum() == graph.n_documents
        # spot-check one (t, z) cell against the assignment vectors
        doc_times = np.array([d.timestamp for d in graph.documents])
        t, z = doc_times[0], sampler.state.doc_topic[0]
        expected = int(
            ((doc_times == t) & (sampler.state.doc_topic == z)).sum()
        )
        assert counts[t, z] == expected

    def test_fixed_communities_never_move(self, twitter_tiny, tiny_config):
        graph, _ = twitter_tiny
        fixed = np.zeros(graph.n_documents, dtype=np.int64)
        params = DiffusionParameters.initial(4, 8)
        sampler = CPDSampler(graph, tiny_config, params, rng=0, fixed_communities=fixed)
        sampler.sweep_documents()
        np.testing.assert_array_equal(sampler.state.doc_community, 0)


class TestAugmentation:
    def test_lambda_draws_positive(self, sampler):
        sampler.sample_lambdas()
        assert np.all(sampler.lambdas > 0)
        assert sampler.lambdas.shape == (sampler.n_friend_links,)

    def test_delta_draws_positive(self, sampler):
        sampler.sample_deltas()
        assert np.all(sampler.deltas > 0)

    def test_friendship_dots_in_unit_range(self, sampler):
        dots = sampler.friendship_dots()
        assert np.all(dots >= 0.0) and np.all(dots <= 1.0)


class TestDiffusionScoring:
    def test_logits_shape(self, sampler):
        logits = sampler.diffusion_logits()
        assert logits.shape == (sampler.n_diff_links,)
        assert np.all(np.isfinite(logits))

    def test_components_zeroed_by_flags(self, twitter_tiny):
        graph, _ = twitter_tiny
        config = CPDConfig(
            n_communities=4, n_topics=8, rho=0.5, alpha=0.5,
            use_topic_factor=False, use_individual_factor=False,
        )
        params = DiffusionParameters.initial(4, 8)
        sampler = CPDSampler(graph, config, params, rng=0)
        components = sampler.diffusion_components(
            sampler.e_src, sampler.e_tgt, sampler.e_time
        )
        np.testing.assert_array_equal(components["popularity"], 0.0)
        np.testing.assert_array_equal(components["features"], 0.0)

    @staticmethod
    def _literal_community_term(sampler):
        """Eq. 5 community term, one link at a time: (pi_u theta_z) eta_z (pi_v theta_z)."""
        state = sampler.state
        pi, theta = state.pi_hat_view(), state.theta_hat_view()
        eta = sampler.params.eta
        expected = np.empty(sampler.n_diff_links)
        for link in range(sampler.n_diff_links):
            source, target = int(sampler.e_src[link]), int(sampler.e_tgt[link])
            pi_u = pi[sampler._doc_user[source]]
            pi_v = pi[sampler._doc_user[target]]
            if sampler.uses_similarity_diffusion:
                expected[link] = pi_u @ pi_v
                continue
            topic = max(int(state.doc_topic[source]), 0)  # unassigned reads as topic 0
            expected[link] = (pi_u * theta[:, topic]) @ eta[:, :, topic] @ (
                pi_v * theta[:, topic]
            )
        return expected

    @pytest.mark.parametrize("heterogeneity", [True, False])
    def test_community_term_matches_literal_formula(self, twitter_tiny, heterogeneity):
        graph, _ = twitter_tiny
        config = CPDConfig(
            n_communities=4, n_topics=8, rho=0.5, alpha=0.5, heterogeneity=heterogeneity
        )
        params = DiffusionParameters.initial(4, 8)
        params.eta = np.random.default_rng(3).dirichlet(np.ones(4 * 4 * 8)).reshape(4, 4, 8)
        sampler = CPDSampler(graph, config, params, rng=0)
        sampler.sweep_documents()
        if heterogeneity:
            sampler.state.unassign(int(sampler.e_src[0]))
            assert sampler.state.doc_topic[sampler.e_src[0]] == -1
        components = sampler.diffusion_components(
            sampler.e_src, sampler.e_tgt, sampler.e_time
        )
        np.testing.assert_allclose(
            components["community"], self._literal_community_term(sampler), rtol=1e-12
        )

    def test_empty_batch(self, sampler):
        components = sampler.diffusion_components(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert components["community"].shape == (0,)


class TestLinkCSRStructures:
    def test_friend_csr_covers_both_endpoints(self, sampler, twitter_tiny):
        graph, _ = twitter_tiny
        assert sampler.f_csr_indptr[-1] == 2 * graph.n_friendship_links
        assert len(sampler.f_csr_neighbor) == 2 * graph.n_friendship_links
        # every user's slice holds exactly the links incident to them
        for user in range(graph.n_users):
            start, end = sampler.f_csr_indptr[user], sampler.f_csr_indptr[user + 1]
            for position in range(start, end):
                link = int(sampler.f_csr_link[position])
                neighbor = int(sampler.f_csr_neighbor[position])
                endpoints = {int(sampler.f_src[link]), int(sampler.f_tgt[link])}
                assert user in endpoints
                assert neighbor in endpoints or neighbor == user

    def test_diffusion_csr_covers_both_endpoints(self, sampler, twitter_tiny):
        graph, _ = twitter_tiny
        assert sampler.d_csr_indptr[-1] == 2 * graph.n_diffusion_links
        for doc in range(graph.n_documents):
            start, end = sampler.d_csr_indptr[doc], sampler.d_csr_indptr[doc + 1]
            for position in range(start, end):
                link = int(sampler.d_csr_link[position])
                if sampler.d_csr_is_source[position]:
                    assert int(sampler.e_src[link]) == doc
                    assert int(sampler.d_csr_other[position]) == int(sampler.e_tgt[link])
                else:
                    assert int(sampler.e_tgt[link]) == doc
                    assert int(sampler.d_csr_other[position]) == int(sampler.e_src[link])

    def test_outgoing_csr_matches_sources(self, sampler, twitter_tiny):
        graph, _ = twitter_tiny
        assert sampler.dout_csr_indptr[-1] == graph.n_diffusion_links
        for doc in range(graph.n_documents):
            start, end = sampler.dout_csr_indptr[doc], sampler.dout_csr_indptr[doc + 1]
            links = sampler.dout_csr_link[start:end]
            np.testing.assert_array_equal(sampler.e_src[links], doc)
            np.testing.assert_array_equal(
                sampler.dout_csr_target[start:end], sampler.e_tgt[links]
            )


class TestEtaAggregation:
    def test_vectorized_matches_per_link_loop(self, sampler):
        sampler.sweep_documents()
        eta = sampler.aggregate_eta()
        config = sampler.config
        state = sampler.state
        counts = np.full(
            (config.n_communities, config.n_communities, config.n_topics),
            config.eta_smoothing,
        )
        for index in range(sampler.n_diff_links):
            c_source = int(state.doc_community[sampler.e_src[index]])
            c_target = int(state.doc_community[sampler.e_tgt[index]])
            z_source = int(state.doc_topic[sampler.e_src[index]])
            counts[c_source, c_target, z_source] += 1.0
        np.testing.assert_allclose(eta, counts / counts.sum())

    @pytest.mark.parametrize("orientation", ["source", "target"])
    def test_links_with_unassigned_endpoint_are_skipped(self, twitter_tiny, orientation):
        graph, _ = twitter_tiny
        config = CPDConfig(n_communities=4, n_topics=5, rho=0.5, alpha=0.5)
        sampler = CPDSampler(graph, config, DiffusionParameters.initial(4, 5), rng=0)
        before = sampler.eta_counts_range(0, sampler.n_diff_links)
        (new_doc,) = sampler.append_documents(
            [np.array([0, 1])], users=np.array([0]), timestamps=np.array([0])
        )
        assert sampler.state.doc_community[new_doc] == -1
        assigned_doc = 0
        pair = (new_doc, assigned_doc) if orientation == "source" else (assigned_doc, new_doc)
        sampler.append_diffusion_links(
            np.array([pair[0]]), np.array([pair[1]]), np.array([0])
        )
        after = sampler.eta_counts_range(0, sampler.n_diff_links)
        np.testing.assert_array_equal(after, before)

    def test_eta_is_distribution(self, sampler):
        eta = sampler.aggregate_eta()
        assert eta.shape == (4, 4, 8)
        assert eta.sum() == pytest.approx(1.0)
        assert np.all(eta > 0)  # smoothing keeps every cell positive

    def test_eta_reflects_assignments(self, twitter_tiny, tiny_config):
        graph, _ = twitter_tiny
        params = DiffusionParameters.initial(4, 8)
        sampler = CPDSampler(graph, tiny_config, params, rng=0)
        # force all docs into community 0 / topic 0: mass concentrates there
        snapshot = {
            "doc_community": np.zeros(graph.n_documents, dtype=np.int64),
            "doc_topic": np.zeros(graph.n_documents, dtype=np.int64),
            "lambdas": sampler.lambdas,
            "deltas": sampler.deltas,
        }
        sampler.load_snapshot(snapshot)
        eta = sampler.aggregate_eta()
        assert eta[0, 0, 0] == eta.max()


class TestSnapshots:
    def test_export_load_roundtrip(self, sampler):
        sampler.sweep_documents()
        snapshot = sampler.export_snapshot()
        theta = sampler.state.theta_hat().copy()
        sampler.load_snapshot(snapshot)
        np.testing.assert_allclose(sampler.state.theta_hat(), theta)
        sampler.state.check_consistency()

    def test_apply_assignments(self, sampler):
        doc_ids = np.array([0, 1])
        sampler.apply_assignments(doc_ids, np.array([2, 3]), np.array([5, 6]))
        assert sampler.state.doc_community[0] == 2
        assert sampler.state.doc_topic[1] == 6
        sampler.state.check_consistency()
        counts = sampler.popularity.counts_matrix()
        assert counts.sum() == sampler.graph.n_documents

    def test_apply_assignments_empty_batch(self, sampler):
        before = sampler.state.doc_topic.copy()
        sampler.apply_assignments(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))
        np.testing.assert_array_equal(sampler.state.doc_topic, before)

    def test_apply_assignments_keeps_popularity_in_sync(self, sampler, twitter_tiny):
        graph, _ = twitter_tiny
        doc_ids = np.arange(graph.n_documents)
        communities = (sampler.state.doc_community + 1) % 4
        topics = (sampler.state.doc_topic + 2) % 8
        sampler.apply_assignments(doc_ids, communities, topics)
        sampler.state.check_consistency()
        doc_times = np.array([d.timestamp for d in graph.documents])
        expected = np.zeros_like(sampler.popularity.counts_matrix())
        np.add.at(expected, (doc_times, topics), 1.0)
        np.testing.assert_array_equal(sampler.popularity.counts_matrix(), expected)


class TestHeterogeneityModes:
    def test_similarity_mode_flags(self, twitter_tiny):
        graph, _ = twitter_tiny
        config = CPDConfig(n_communities=4, n_topics=8, heterogeneity=False, rho=0.5, alpha=0.5)
        params = DiffusionParameters.initial(4, 8)
        sampler = CPDSampler(graph, config, params, rng=0)
        assert sampler.uses_similarity_diffusion
        assert not sampler.uses_profile_diffusion
        sampler.sweep_documents()
        sampler.sample_deltas()
        sampler.state.check_consistency()
