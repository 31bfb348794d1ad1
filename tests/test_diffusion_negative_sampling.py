"""Tests for negative-link sampling."""

import numpy as np
import pytest

from repro.core import _compiled
from repro.datasets import dblp_scenario, twitter_scenario
from repro.diffusion import (
    sample_negative_diffusion_pairs,
    sample_negative_friendship_pairs,
)
from repro.diffusion.negative_sampling import build_word_document_index
from repro.graph import Document, SocialGraph, User, Vocabulary


def oracle_word_index(graph):
    """The index tables built by walking ``graph.documents`` directly: one
    ``np.unique`` over (document, word) keys (the specification the
    builder over the graph's unique-word CSR must reproduce)."""
    n_docs = graph.n_documents
    lengths = np.asarray([len(doc.words) for doc in graph.documents], dtype=np.int64)
    tokens = np.concatenate(
        [np.asarray(doc.words, dtype=np.int64) for doc in graph.documents]
        + [np.zeros(0, dtype=np.int64)]
    )
    n_words = max(graph.n_words, 1)
    owner = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
    pair_doc, doc_words = np.divmod(np.unique(owner * n_words + tokens), n_words)
    frequency = np.bincount(doc_words, minlength=n_words)
    doc_ptr = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair_doc, minlength=n_docs), out=doc_ptr[1:])
    word_ptr = np.zeros(n_words + 1, dtype=np.int64)
    np.cumsum(frequency, out=word_ptr[1:])
    return {
        "word_ptr": word_ptr,
        "word_docs": pair_doc[np.argsort(doc_words, kind="stable")],
        "doc_ptr": doc_ptr,
        "doc_words": doc_words,
        "word_cum": np.cumsum(1.0 / frequency[doc_words].astype(np.float64) ** 2),
        "doc_user": np.asarray([doc.user_id for doc in graph.documents], dtype=np.int64),
        "max_time": max((doc.timestamp for doc in graph.documents), default=0),
    }


def hand_graph():
    """An empty document and a word repeated within one document."""
    vocab = Vocabulary()
    vocab.encode(["a", "b", "c"])
    documents = [
        Document(0, 0, np.array([2, 1, 2]), timestamp=3),
        Document(1, 1, np.zeros(0, dtype=np.int64), timestamp=5),
        Document(2, 1, np.array([0, 2]), timestamp=1),
    ]
    users = [User(0, "u0", [0]), User(1, "u1", [1, 2])]
    return SocialGraph(users, documents, [], [], vocab)


class TestDiffusionNegatives:
    def test_count_and_novelty(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        negatives = sample_negative_diffusion_pairs(graph, 50, rng)
        assert len(negatives) == 50
        observed = graph.diffusion_pairs()
        assert all((i, j) not in observed for i, j, _t in negatives)

    def test_no_same_user_pairs(self, twitter_tiny, rng):
        graph, _ = twitter_tiny
        doc_user = graph.doc_user
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


GRAPHS = pytest.mark.parametrize(
    "make_graph",
    [
        lambda: twitter_scenario("medium", rng=1)[0],
        lambda: dblp_scenario("small", rng=1)[0],
        hand_graph,
    ],
    ids=["twitter-medium", "dblp-small", "hand"],
)


class TestWordIndex:
    @GRAPHS
    def test_equals_the_document_walk(self, make_graph):
        graph = make_graph()
        index = build_word_document_index(graph)
        for name, expected in oracle_word_index(graph).items():
            actual = getattr(index, name)
            if name == "max_time":
                assert actual == expected
            else:
                assert actual.dtype == expected.dtype, name
                np.testing.assert_array_equal(actual, expected, err_msg=name)

    def test_index_covers_documents(self, twitter_tiny):
        graph, _ = twitter_tiny
        index = build_word_document_index(graph)
        doc = graph.documents[0]
        for word in set(doc.words.tolist()):
            assert doc.doc_id in index[word].tolist()


@pytest.mark.skipif(not _compiled.backend_status()[0], reason="no C toolchain on this host")
class TestCompiledParity:
    """The C rejection loop against the numpy spec it replaced: the same
    negatives, in the same order, and the same Generator end state."""

    @staticmethod
    def both(monkeypatch, graph, n_samples, seed, **kwargs):
        """``(compiled, spec)``, each the negatives (or the error type) and
        the Generator state after the call."""
        outcomes = []
        for disabled in ("", "1"):
            monkeypatch.setenv(_compiled.DISABLE_ENV, disabled)
            rng = np.random.default_rng(seed)
            try:
                drawn = sample_negative_diffusion_pairs(graph, n_samples, rng, **kwargs)
            except RuntimeError as error:
                drawn = type(error)
            outcomes.append((drawn, rng.bit_generator.state))
        return outcomes

    @staticmethod
    def assert_same(outcomes):
        (compiled, compiled_state), (spec, spec_state) = outcomes
        if isinstance(spec, np.ndarray):
            assert compiled.dtype == spec.dtype
            np.testing.assert_array_equal(compiled, spec)
        else:
            assert compiled is spec
        assert compiled_state == spec_state

    @GRAPHS
    @pytest.mark.parametrize("hard_fraction", [0.0, 0.5, 1.0])
    def test_same_draws(self, monkeypatch, make_graph, hard_fraction):
        graph = make_graph()
        n_samples = max(1, graph.n_diffusion_links)
        for seed in range(4):
            outcomes = self.both(
                monkeypatch, graph, n_samples, seed, hard_fraction=hard_fraction,
                allow_fewer=True,
            )
            self.assert_same(outcomes)

    @GRAPHS
    def test_same_draws_with_exclude(self, monkeypatch, make_graph):
        graph = make_graph()
        n_docs = graph.n_documents
        rng = np.random.default_rng(0)
        sources, targets = rng.integers(0, n_docs, (2, 50)).tolist()
        exclude = set(zip(sources, targets)) | {(0, j) for j in range(n_docs)}
        for seed in range(3):
            self.assert_same(
                self.both(monkeypatch, graph, 30, seed, exclude=exclude, allow_fewer=True)
            )

    @pytest.mark.parametrize(
        "make_graph", [lambda: twitter_scenario("tiny", rng=42)[0], hand_graph],
        ids=["twitter-tiny", "hand"],
    )
    @pytest.mark.parametrize("allow_fewer", [True, False])
    def test_same_draws_when_exhausted(self, monkeypatch, make_graph, allow_fewer):
        """Asking for more negatives than exist spends the whole budget, in
        several rounds capped at ``MAX_BATCH`` on the larger graph."""
        graph = make_graph()
        self.assert_same(
            self.both(monkeypatch, graph, graph.n_documents**2, 7, allow_fewer=allow_fewer)
        )


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
