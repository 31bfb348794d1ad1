"""Tests for user features and topic popularity."""

import numpy as np
import pytest

from repro.diffusion import TopicPopularity, UserFeatures


class TestUserFeatures:
    def test_shapes(self, twitter_tiny):
        graph, _ = twitter_tiny
        features = UserFeatures(graph)
        assert features.popularity.shape == (graph.n_users,)
        assert features.activeness.shape == (graph.n_users,)

    def test_pair_features_layout(self, twitter_tiny):
        graph, _ = twitter_tiny
        features = UserFeatures(graph)
        pair = features.pair_features(0, 1)
        assert pair.shape == (UserFeatures.N_FEATURES,)
        assert pair[0] == features.popularity[0]
        assert pair[2] == features.popularity[1]

    def test_batch_matches_single(self, twitter_tiny):
        graph, _ = twitter_tiny
        features = UserFeatures(graph)
        batch = features.pair_features_batch(np.array([0, 2]), np.array([1, 3]))
        np.testing.assert_allclose(batch[0], features.pair_features(0, 1))
        np.testing.assert_allclose(batch[1], features.pair_features(2, 3))

    def test_batch_is_the_row_concatenation(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        features = UserFeatures(graph)
        source = rng.integers(0, graph.n_users, 50)
        target = rng.integers(0, graph.n_users, 50)
        rows = np.concatenate(
            [features._per_user[source], features._per_user[target]], axis=1
        )
        np.testing.assert_array_equal(features.pair_features_batch(source, target), rows)
        empty = np.zeros(0, dtype=np.int64)
        batch = features.pair_features_batch(empty, empty)
        assert batch.shape == (0, UserFeatures.N_FEATURES)

    def test_batch_rejects_mismatched(self, twitter_tiny):
        graph, _ = twitter_tiny
        features = UserFeatures(graph)
        with pytest.raises(ValueError):
            features.pair_features_batch(np.array([0]), np.array([1, 2]))

    def test_popularity_reflects_followers(self, twitter_tiny):
        """Popularity is the smoothed follower (in-degree) count."""
        graph, _ = twitter_tiny
        features = UserFeatures(graph, log_scale=False)
        followers = np.array([graph.follower_count(u) for u in range(graph.n_users)])
        np.testing.assert_allclose(features.popularity, followers + 1.0)

    def test_popularity_varies_on_symmetric_graphs(self, dblp_tiny):
        """The paper's follower/followee ratio is constant 1 on symmetric
        co-authorship graphs; the follower-count definition still varies."""
        graph, _ = dblp_tiny
        features = UserFeatures(graph)
        assert features.popularity.std() > 0

    def test_log_scale_default(self, twitter_tiny):
        graph, _ = twitter_tiny
        raw = UserFeatures(graph, log_scale=False)
        logged = UserFeatures(graph, log_scale=True)
        np.testing.assert_allclose(logged.popularity, np.log(raw.popularity))


class TestTopicPopularity:
    def test_increment_decrement_roundtrip(self):
        table = TopicPopularity(n_topics=3, n_time_buckets=4)
        table.increment(1, 2)
        assert table.count(1, 2) == 1
        table.decrement(1, 2)
        assert table.count(1, 2) == 0

    def test_underflow_raises(self):
        table = TopicPopularity(n_topics=2, n_time_buckets=2)
        with pytest.raises(ValueError):
            table.decrement(0, 0)

    def test_move(self):
        table = TopicPopularity(n_topics=3, n_time_buckets=2)
        table.increment(0, 1)
        table.move(0, 1, 2)
        assert table.count(0, 1) == 0
        assert table.count(0, 2) == 1

    def test_from_assignments(self):
        table = TopicPopularity.from_assignments(
            timestamps=np.array([0, 0, 1]),
            topics=np.array([1, 1, 0]),
            n_topics=2,
            n_time_buckets=2,
        )
        assert table.count(0, 1) == 2
        assert table.count(1, 0) == 1

    def test_proportion_mode_bounded(self):
        table = TopicPopularity(n_topics=2, n_time_buckets=1)
        for _ in range(10):
            table.increment(0, 0)
        scores = table.scores(0)
        assert scores[0] == pytest.approx(1.0)
        assert scores[1] == pytest.approx(0.0)

    def test_score_matrix_matches_rows(self):
        table = TopicPopularity.from_assignments(
            timestamps=np.array([0, 1, 1]),
            topics=np.array([0, 1, 1]),
            n_topics=2,
            n_time_buckets=2,
        )
        matrix = table.score_matrix()
        np.testing.assert_allclose(matrix[0], table.scores(0))
        np.testing.assert_allclose(matrix[1], table.scores(1))

    def test_increment_decrement_many(self):
        table = TopicPopularity(n_topics=3, n_time_buckets=2)
        table.increment_many(np.array([0, 0, 1]), np.array([2, 2, 0]))
        assert table.count(0, 2) == 2
        assert table.count(1, 0) == 1
        table.decrement_many(np.array([0]), np.array([2]))
        assert table.count(0, 2) == 1
        with pytest.raises(ValueError):
            table.decrement_many(np.array([1, 1]), np.array([0, 0]))

    def test_move_many_matches_scalar_moves(self):
        bulk = TopicPopularity(n_topics=3, n_time_buckets=2)
        scalar = TopicPopularity(n_topics=3, n_time_buckets=2)
        timestamps = np.array([0, 0, 1, 1])
        old_topics = np.array([0, 1, 2, 0])
        new_topics = np.array([1, 1, 0, 2])
        bulk.increment_many(timestamps, old_topics)
        scalar.increment_many(timestamps, old_topics)
        bulk.move_many(timestamps, old_topics, new_topics)
        for t, old, new in zip(timestamps, old_topics, new_topics):
            scalar.move(int(t), int(old), int(new))
        np.testing.assert_array_equal(bulk._counts, scalar._counts)
