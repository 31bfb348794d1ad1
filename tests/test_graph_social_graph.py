"""Tests for the SocialGraph container, records and adjacency indexes."""

import numpy as np
import pytest

from repro.graph import (
    DiffusionLink,
    Document,
    FriendshipLink,
    SocialGraph,
    User,
    Vocabulary,
)


def make_graph():
    """Two users, three docs, mixed links."""
    vocab = Vocabulary()
    vocab.encode(["a", "b", "c"])
    users = [User(0, "u0", [0, 1]), User(1, "u1", [2])]
    documents = [
        Document(0, 0, np.array([0, 1]), timestamp=0),
        Document(1, 0, np.array([1, 2]), timestamp=1),
        Document(2, 1, np.array([2, 0]), timestamp=2),
    ]
    friendships = [FriendshipLink(0, 1)]
    diffusions = [DiffusionLink(2, 0, timestamp=2), DiffusionLink(1, 2, timestamp=1)]
    return SocialGraph(users, documents, friendships, diffusions, vocab, name="toy")


class TestRecords:
    def test_self_friendship_rejected(self):
        with pytest.raises(ValueError):
            FriendshipLink(1, 1)

    def test_self_diffusion_rejected(self):
        with pytest.raises(ValueError):
            DiffusionLink(3, 3)

    def test_document_word_array_coerced(self):
        doc = Document(0, 0, [1, 2, 3])
        assert doc.words.dtype == np.int64
        assert len(doc) == 3

    def test_document_requires_1d_words(self):
        with pytest.raises(ValueError):
            Document(0, 0, np.zeros((2, 2)))


class TestValidation:
    def test_valid_graph_builds(self):
        graph = make_graph()
        assert graph.n_users == 2
        assert graph.n_documents == 3

    def test_bad_user_reference(self):
        graph_parts = make_graph()
        documents = list(graph_parts.documents)
        documents[0] = Document(0, 9, np.array([0]))
        with pytest.raises(ValueError):
            SocialGraph(
                graph_parts.users,
                documents,
                graph_parts.friendship_links,
                graph_parts.diffusion_links,
                graph_parts.vocabulary,
            )

    def test_bad_word_id(self):
        parts = make_graph()
        documents = list(parts.documents)
        documents[1] = Document(1, 0, np.array([99]))
        with pytest.raises(ValueError):
            SocialGraph(
                parts.users, documents, parts.friendship_links,
                parts.diffusion_links, parts.vocabulary,
            )

    def test_dangling_friendship(self):
        parts = make_graph()
        with pytest.raises(ValueError):
            SocialGraph(
                parts.users, parts.documents,
                [FriendshipLink(0, 7)], parts.diffusion_links, parts.vocabulary,
            )

    def test_non_dense_doc_ids(self):
        parts = make_graph()
        documents = [parts.documents[0], parts.documents[2]]
        with pytest.raises(ValueError):
            SocialGraph(
                parts.users, documents, parts.friendship_links, [], parts.vocabulary
            )


class TestAdjacency:
    def test_friendship_neighbors_bidirectional(self):
        graph = make_graph()
        assert graph.friendship_neighbors(0) == [1]
        assert graph.friendship_neighbors(1) == [0]

    def test_documents_of(self):
        graph = make_graph()
        assert graph.documents_of(0) == [0, 1]


class TestDegreesAndStats:
    def test_follower_followee(self):
        graph = make_graph()
        assert graph.followee_count(0) == 1
        assert graph.follower_count(1) == 1
        assert graph.follower_count(0) == 0

    def test_diffusions_made_received(self):
        graph = make_graph()
        # user 1 (doc 2) diffused doc 0 (user 0); user 0 (doc 1) diffused doc 2
        assert graph.diffusions_made(1) == 1
        assert graph.diffusions_received(0) == 1
        assert graph.diffusions_made(0) == 1

    def test_stats_row(self):
        stats = make_graph().stats()
        assert stats.as_row() == (2, 1, 2, 3, 3)

    def test_timestamps(self):
        np.testing.assert_array_equal(make_graph().timestamps(), [1, 2])

    def test_pair_sets(self):
        graph = make_graph()
        assert graph.friendship_pairs() == {(0, 1)}
        assert graph.diffusion_pairs() == {(2, 0), (1, 2)}

    def test_repr_mentions_name(self):
        assert "toy" in repr(make_graph())
