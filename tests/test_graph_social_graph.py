"""Tests for the SocialGraph container, records and adjacency indexes."""

import numpy as np
import pytest

from repro.graph import (
    DiffusionLink,
    Document,
    FriendshipLink,
    GraphStats,
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
        assert stats == GraphStats(
            n_users=2, n_friendship_links=1, n_diffusion_links=2, n_documents=3, n_words=3
        )

    def test_timestamps(self):
        np.testing.assert_array_equal(make_graph().timestamps(), [1, 2])

    def test_pair_sets(self):
        graph = make_graph()
        assert graph.friendship_pairs() == {(0, 1)}
        assert graph.diffusion_pairs() == {(2, 0), (1, 2)}

    def test_repr_mentions_name(self):
        assert "toy" in repr(make_graph())


def layout_graph():
    """Three docs: a repeated word, an empty document, unsorted words."""
    vocab = Vocabulary()
    vocab.encode(["a", "b", "c", "d"])
    users = [User(0, "u0", [0, 1]), User(1, "u1", [2])]
    documents = [
        Document(0, 0, np.array([2, 0, 2, 2]), timestamp=4),
        Document(1, 0, np.zeros(0, dtype=np.int64), timestamp=1),
        Document(2, 1, np.array([3, 1, 0]), timestamp=7),
    ]
    return SocialGraph(users, documents, [], [], vocab)


class TestDocumentArrays:
    def test_layout_matches_documents(self):
        graph = layout_graph()
        np.testing.assert_array_equal(graph.tokens, [2, 0, 2, 2, 3, 1, 0])
        np.testing.assert_array_equal(graph.token_ptr, [0, 4, 4, 7])
        np.testing.assert_array_equal(graph.doc_lengths, [4, 0, 3])
        np.testing.assert_array_equal(graph.unique_words, [0, 2, 0, 1, 3])
        np.testing.assert_array_equal(graph.unique_counts, [1.0, 3.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(graph.unique_ptr, [0, 2, 2, 5])
        np.testing.assert_array_equal(graph.doc_user, [0, 0, 1])
        np.testing.assert_array_equal(graph.doc_time, [4, 1, 7])

    @pytest.mark.parametrize(
        "name",
        ["tokens", "token_ptr", "doc_lengths", "unique_words", "unique_counts",
         "unique_ptr", "doc_user", "doc_time"],
    )
    def test_in_place_write_raises(self, name):
        array = getattr(layout_graph(), name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1

    def test_out_of_vocabulary_names_first_document(self):
        parts = make_graph()
        documents = list(parts.documents)
        documents[1] = Document(1, 0, np.array([0, 99]))
        documents[2] = Document(2, 1, np.array([-1]))
        with pytest.raises(ValueError, match="document 1 has out-of-vocabulary"):
            SocialGraph(
                parts.users, documents, parts.friendship_links,
                parts.diffusion_links, parts.vocabulary,
            )

    def test_unknown_user_names_first_document(self):
        parts = make_graph()
        documents = list(parts.documents)
        documents[2] = Document(2, 5, np.array([0]))
        with pytest.raises(ValueError, match="document 2 has unknown user 5"):
            SocialGraph(
                parts.users, documents, parts.friendship_links, [], parts.vocabulary
            )
