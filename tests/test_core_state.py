"""Tests for the Gibbs count state (incl. hypothesis inversion property)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CPDConfig, CPDModel, DiffusionParameters
from repro.core import state as state_module
from repro.core.gibbs import CPDSampler
from repro.core.model import FitOptions
from repro.core.state import CPDState
from repro.graph import SocialGraph
from repro.parallel import ParallelEStepRunner


@pytest.fixture()
def state(twitter_tiny, tiny_config):
    graph, _ = twitter_tiny
    return CPDState(graph, tiny_config)


class TestAssignUnassign:
    def test_assign_updates_counts(self, state):
        state.assign(0, community=1, topic=2)
        assert state.doc_community[0] == 1
        assert state.doc_topic[0] == 2
        assert state.community_topic[1, 2] == 1
        assert state.community_totals[1] == 1

    def test_double_assign_rejected(self, state):
        state.assign(0, 0, 0)
        with pytest.raises(ValueError):
            state.assign(0, 1, 1)

    def test_unassign_restores(self, state):
        state.assign(0, 1, 2)
        old = state.unassign(0)
        assert old == (1, 2)
        assert state.community_topic.sum() == 0
        assert state.topic_word.sum() == 0
        assert state.user_community.sum() == 0

    def test_unassign_unassigned_rejected(self, state):
        with pytest.raises(ValueError):
            state.unassign(0)

    def test_random_init_covers_all_docs(self, state, rng):
        state.random_init(rng)
        assert np.all(state.doc_topic >= 0)
        assert np.all(state.doc_community >= 0)
        state.check_consistency()

    @pytest.mark.parametrize("frozen", [False, True])
    def test_random_init_matches_the_scalar_path(self, twitter_tiny, tiny_config, frozen):
        """Bulk counts equal one ``assign`` per document from the same scalar
        draws, and the Generator ends in the same state."""
        graph, _ = twitter_tiny
        fixed = None
        if frozen:
            fixed = np.random.default_rng(3).integers(0, tiny_config.n_communities, graph.n_documents)
        bulk, scalar = CPDState(graph, tiny_config), CPDState(graph, tiny_config)
        bulk_rng, scalar_rng = np.random.default_rng(11), np.random.default_rng(11)
        bulk.random_init(bulk_rng, fixed_communities=fixed)
        for doc_id in range(scalar.n_docs):
            community = (
                int(scalar_rng.integers(0, scalar.n_communities)) if fixed is None
                else int(fixed[doc_id])
            )
            scalar.assign(doc_id, community, int(scalar_rng.integers(0, scalar.n_topics)))
        for name in CPDState.SHARED_FIELDS:
            np.testing.assert_array_equal(getattr(bulk, name), getattr(scalar, name))
        assert bulk.n_unassigned == scalar.n_unassigned == 0
        assert bulk_rng.bit_generator.state == scalar_rng.bit_generator.state
        bulk.check_consistency()

    def test_random_init_needs_an_unassigned_state(self, state, rng):
        state.assign(0, 0, 0)
        with pytest.raises(ValueError, match="unassigned"):
            state.random_init(rng)

    def test_fixed_communities_respected(self, state, rng, twitter_tiny):
        graph, _ = twitter_tiny
        fixed = np.zeros(graph.n_documents, dtype=np.int64)
        state.random_init(rng, fixed_communities=fixed)
        np.testing.assert_array_equal(state.doc_community, 0)


class TestEstimators:
    def test_pi_hat_normalised(self, state, rng):
        state.random_init(rng)
        np.testing.assert_allclose(state.pi_hat().sum(axis=1), 1.0, rtol=1e-9)

    def test_theta_phi_normalised(self, state, rng):
        state.random_init(rng)
        np.testing.assert_allclose(state.theta_hat().sum(axis=1), 1.0, rtol=1e-9)
        np.testing.assert_allclose(state.phi_hat().sum(axis=1), 1.0, rtol=1e-9)

    def test_pi_hat_user_matches_matrix(self, state, rng):
        state.random_init(rng)
        np.testing.assert_allclose(state.pi_hat_user(3), state.pi_hat()[3])

    def test_smoothing_formula(self, state):
        state.assign(0, 0, 0)  # doc 0 belongs to some user u
        user = int(np.flatnonzero(state.user_totals)[0])
        pi = state.pi_hat_user(user)
        expected_top = (1 + state.rho) / (1 + state.n_communities * state.rho)
        assert pi[0] == pytest.approx(expected_top)


class TestSnapshots:
    def test_load_assignments_roundtrip(self, state, rng):
        state.random_init(rng)
        communities = state.doc_community.copy()
        topics = state.doc_topic.copy()
        theta_before = state.theta_hat()
        state.load_assignments(communities, topics)
        state.check_consistency()
        np.testing.assert_allclose(state.theta_hat(), theta_before)

    def test_reset_clears(self, state, rng):
        state.random_init(rng)
        state.reset()
        assert state.topic_word.sum() == 0
        assert np.all(state.doc_topic == -1)

    def test_load_rejects_wrong_shape(self, state):
        with pytest.raises(ValueError):
            state.load_assignments(np.zeros(3), np.zeros(3))

    def test_load_rejects_out_of_range(self, state):
        communities = np.zeros(state.n_docs, dtype=np.int64)
        topics = np.zeros(state.n_docs, dtype=np.int64)
        with pytest.raises(ValueError):
            state.load_assignments(communities - 1, topics)
        with pytest.raises(ValueError):
            state.load_assignments(communities, topics + state.n_topics)

    def test_load_matches_sequential_assign(self, state, rng, twitter_tiny):
        """The bincount rebuild equals a document-by-document rebuild."""
        graph, _ = twitter_tiny
        state.random_init(rng)
        communities = state.doc_community.copy()
        topics = state.doc_topic.copy()
        state.load_assignments(communities, topics)

        other = CPDState(graph, CPDConfig(n_communities=4, n_topics=8, rho=0.5, alpha=0.5))
        for doc_id in range(graph.n_documents):
            other.assign(doc_id, int(communities[doc_id]), int(topics[doc_id]))

        np.testing.assert_array_equal(state.user_community, other.user_community)
        np.testing.assert_array_equal(state.community_topic, other.community_topic)
        np.testing.assert_array_equal(state.topic_word, other.topic_word)
        np.testing.assert_array_equal(state.user_totals, other.user_totals)
        np.testing.assert_array_equal(state.community_totals, other.community_totals)
        np.testing.assert_array_equal(state.topic_totals, other.topic_totals)


class TestEstimatorCaches:
    def test_views_track_mutations(self, state, rng):
        state.random_init(rng)
        pi_before = state.pi_hat_view().copy()
        theta_before = state.theta_hat_view().copy()
        community, topic = state.unassign(0)
        # the cached views must refresh the dirty rows on next access
        fresh_pi = (state.user_community + state.rho) / (
            state.user_totals[:, None] + state.n_communities * state.rho
        )
        fresh_theta = (state.community_topic + state.alpha) / (
            state.community_totals[:, None] + state.n_topics * state.alpha
        )
        np.testing.assert_allclose(state.pi_hat_view(), fresh_pi)
        np.testing.assert_allclose(state.theta_hat_view(), fresh_theta)
        state.assign(0, community, topic)
        np.testing.assert_allclose(state.pi_hat_view(), pi_before)
        np.testing.assert_allclose(state.theta_hat_view(), theta_before)

    def test_public_accessors_return_copies(self, state, rng):
        state.random_init(rng)
        pi = state.pi_hat()
        pi.fill(-1.0)
        assert np.all(state.pi_hat() >= 0.0)
        theta = state.theta_hat()
        theta.fill(-1.0)
        assert np.all(state.theta_hat() >= 0.0)

    def test_many_dirty_rows_refresh_vectorised(self, state, rng):
        state.random_init(rng)
        state.pi_hat_view()
        state.theta_hat_view()
        # dirty far more rows than the scalar fast path handles
        for doc_id in range(state.n_docs):
            community, topic = state.unassign(doc_id)
            state.assign(doc_id, (community + 1) % state.n_communities, topic)
        state.check_consistency()  # includes cache-vs-counts verification


class TestReassignMany:
    def test_matches_unassign_assign(self, rng, twitter_tiny, tiny_config):
        graph, _ = twitter_tiny
        bulk = CPDState(graph, tiny_config)
        sequential = CPDState(graph, tiny_config)
        bulk.random_init(np.random.default_rng(5))
        sequential.load_assignments(bulk.doc_community, bulk.doc_topic)

        doc_ids = np.arange(0, graph.n_documents, 2)
        communities = (bulk.doc_community[doc_ids] + 1) % tiny_config.n_communities
        topics = (bulk.doc_topic[doc_ids] + 3) % tiny_config.n_topics
        old_c, old_z = bulk.reassign_many(doc_ids, communities, topics)

        for doc_id, community, topic in zip(doc_ids, communities, topics):
            sequential.unassign(int(doc_id))
            sequential.assign(int(doc_id), int(community), int(topic))

        bulk.check_consistency()
        np.testing.assert_array_equal(bulk.topic_word, sequential.topic_word)
        np.testing.assert_array_equal(bulk.user_community, sequential.user_community)
        np.testing.assert_array_equal(bulk.community_topic, sequential.community_topic)
        np.testing.assert_array_equal(bulk.topic_totals, sequential.topic_totals)
        assert np.all(old_z >= 0) and np.all(old_c >= 0)

    def test_empty_batch_is_noop(self, state, rng):
        state.random_init(rng)
        before = state.topic_word.copy()
        state.reassign_many(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))
        np.testing.assert_array_equal(state.topic_word, before)

    def test_rejects_duplicates(self, state, rng):
        state.random_init(rng)
        with pytest.raises(ValueError):
            state.reassign_many(np.array([0, 0]), np.array([1, 2]), np.array([1, 2]))

    def test_rejects_unassigned(self, state, rng):
        state.random_init(rng)
        state.unassign(3)
        with pytest.raises(ValueError):
            state.reassign_many(np.array([3]), np.array([0]), np.array([0]))


class TestInversionProperty:
    @given(
        moves=st.lists(
            st.tuples(st.integers(0, 19), st.integers(0, 3), st.integers(0, 7)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_assign_unassign_sequences_keep_consistency(
        self, twitter_tiny, tiny_config, moves
    ):
        """Arbitrary assign/unassign interleavings never desync counters."""
        graph, _ = twitter_tiny
        state = CPDState(graph, tiny_config)
        for doc_id, community, topic in moves:
            if state.doc_topic[doc_id] == -1:
                state.assign(doc_id, community, topic)
            else:
                state.unassign(doc_id)
        state.check_consistency()
        assert np.all(state.user_community >= 0)
        assert np.all(state.topic_word >= 0)


#: the state attribute each of the graph's corpus arrays is shared as
SHARED_LAYOUT = {
    "_doc_user": "doc_user",
    "_doc_word_lengths": "doc_lengths",
    "_word_indptr": "token_ptr",
    "_all_words": "tokens",
    "_unique_words": "unique_words",
    "_unique_counts": "unique_counts",
    "_unique_indptr": "unique_ptr",
}


class TestSharedCorpusLayout:
    def test_built_once_per_graph(self, twitter_tiny, tiny_config, monkeypatch):
        graph, _ = twitter_tiny
        builds, states = [], []
        original_build = SocialGraph._build_document_arrays
        original_init = CPDState.__init__

        def counting_build(self):
            builds.append(self)
            original_build(self)

        def recording_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            states.append(self)

        def no_csr(*_args):
            raise AssertionError("the state rebuilt the unique-word CSR")

        monkeypatch.setattr(SocialGraph, "_build_document_arrays", counting_build)
        monkeypatch.setattr(CPDState, "__init__", recording_init)
        monkeypatch.setattr(state_module, "unique_word_csr", no_csr)
        CPDModel(tiny_config, rng=1).fit(graph)
        CPDModel(tiny_config, rng=2).fit(graph)
        with ParallelEStepRunner(graph, tiny_config, n_workers=2, rng=3) as runner:
            CPDModel(tiny_config, rng=4).fit(graph, FitOptions(document_sweeper=runner))
        assert builds == []
        assert len(states) == 4  # two fits, the runner's helper, the runner fit
        for state in states:
            for attribute, name in SHARED_LAYOUT.items():
                assert getattr(state, attribute) is getattr(graph, name), attribute

    def test_append_leaves_graph_and_other_sampler_unchanged(self, twitter_tiny, tiny_config):
        graph, _ = twitter_tiny
        before = {name: getattr(graph, name).copy() for name in SHARED_LAYOUT.values()}
        params = DiffusionParameters.initial(tiny_config.n_communities, tiny_config.n_topics)
        grown = CPDSampler(graph, tiny_config, params, rng=5)
        other = CPDSampler(graph, tiny_config, params.copy(), rng=5)
        grown.append_documents([np.array([1, 4, 1]), np.array([3])], [0, 1], [2, 3])
        assert grown.state.n_docs == graph.n_documents + 2
        assert other.state.n_docs == graph.n_documents
        for attribute, name in SHARED_LAYOUT.items():
            np.testing.assert_array_equal(getattr(graph, name), before[name])
            assert getattr(other.state, attribute) is getattr(graph, name)
            assert getattr(grown.state, attribute) is not getattr(graph, name)
        assert other._doc_time is graph.doc_time and grown._doc_time is not graph.doc_time
        np.testing.assert_array_equal(grown.state._doc_user[: graph.n_documents], graph.doc_user)
        other.state.check_consistency()
        grown.state.check_consistency()
