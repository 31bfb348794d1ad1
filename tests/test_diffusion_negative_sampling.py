"""Tests for negative-link sampling."""

import numpy as np
import pytest

from repro.diffusion import (
    sample_negative_diffusion_pairs,
    sample_negative_friendship_pairs,
)
from repro.diffusion.negative_sampling import build_word_document_index


class TestDiffusionNegatives:
    def test_count_and_novelty(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        negatives = sample_negative_diffusion_pairs(graph, 50, rng)
        assert len(negatives) == 50
        observed = graph.diffusion_pairs()
        assert all((i, j) not in observed for i, j, _t in negatives)

    def test_no_same_user_pairs(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        doc_user = graph.document_user_array()
        negatives = sample_negative_diffusion_pairs(graph, 50, rng)
        assert all(doc_user[i] != doc_user[j] for i, j, _t in negatives)

    def test_no_duplicates(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        negatives = sample_negative_diffusion_pairs(graph, 60, rng)
        assert len({(i, j) for i, j, _ in negatives}) == 60

    def test_uniform_timestamps_in_range(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        max_time = max(doc.timestamp for doc in graph.documents)
        negatives = sample_negative_diffusion_pairs(graph, 40, rng)
        assert all(0 <= t <= max_time for _i, _j, t in negatives)

    def test_hard_negatives_share_words(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        negatives = sample_negative_diffusion_pairs(graph, 60, rng, hard_fraction=1.0)
        for i, j, _t in negatives:
            words_i = set(graph.documents[i].words.tolist())
            words_j = set(graph.documents[j].words.tolist())
            assert words_i & words_j

    def test_exclude_respected(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        first = sample_negative_diffusion_pairs(graph, 30, rng)
        exclude = {(i, j) for i, j, _ in first}
        second = sample_negative_diffusion_pairs(graph, 30, rng, exclude=exclude)
        assert not exclude & {(i, j) for i, j, _ in second}

    def test_bad_parameters(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        with pytest.raises(ValueError):
            sample_negative_diffusion_pairs(graph, 5, rng, hard_fraction=1.5)

    def test_allow_fewer(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        huge = graph.n_documents**2
        negatives = sample_negative_diffusion_pairs(graph, huge, rng, allow_fewer=True)
        assert 0 < len(negatives) < huge


class TestWordIndex:
    def test_index_covers_documents(self, twitter_tiny):
        graph, _ = twitter_tiny
        index = build_word_document_index(graph)
        doc = graph.documents[0]
        for word in set(doc.words.tolist()):
            assert doc.doc_id in index[word].tolist()


class TestFriendshipNegatives:
    def test_count_and_novelty(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        negatives = sample_negative_friendship_pairs(graph, 50, rng)
        assert len(negatives) == 50
        observed = graph.friendship_pairs()
        assert all(pair not in observed for pair in negatives)

    def test_no_self_pairs(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        negatives = sample_negative_friendship_pairs(graph, 50, rng)
        assert all(u != v for u, v in negatives)

    def test_deterministic_with_seed(self, twitter_tiny):
        graph, _ = twitter_tiny
        a = sample_negative_friendship_pairs(graph, 20, 9)
        b = sample_negative_friendship_pairs(graph, 20, 9)
        assert a == b
