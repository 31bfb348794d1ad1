"""Tests for the collapsed-Gibbs LDA substrate."""

import numpy as np
import pytest

from repro.core import _compiled
from repro.parallel import segment_users_by_topic
from repro.topics import LDA, LDAConfig
from repro.topics import lda as lda_module
from repro.topics.lda import compiled_sweep, gibbs_sweep

BACKEND_AVAILABLE = _compiled.backend_status()[0]

needs_backend = pytest.mark.skipif(
    not BACKEND_AVAILABLE, reason="no C toolchain on this host"
)


def block_corpus(rng, n_docs=60, n_topics=3, words_per_topic=10, doc_length=12):
    """Documents drawn from disjoint word blocks — trivially separable."""
    docs = []
    labels = []
    for d in range(n_docs):
        topic = d % n_topics
        base = topic * words_per_topic
        docs.append(base + rng.integers(0, words_per_topic, size=doc_length))
        labels.append(topic)
    return docs, np.asarray(labels), n_topics * words_per_topic


class TestConfig:
    def test_alpha_convention(self):
        assert LDAConfig(n_topics=10).resolved_alpha() == pytest.approx(5.0)

    def test_alpha_override(self):
        assert LDAConfig(n_topics=10, alpha=0.3).resolved_alpha() == 0.3

    def test_rejects_zero_topics(self):
        with pytest.raises(ValueError):
            LDA(LDAConfig(n_topics=0))

    @pytest.mark.parametrize("alpha", [0.0, -0.5, float("nan")])
    def test_rejects_non_positive_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            LDA(LDAConfig(n_topics=2, alpha=alpha))

    @pytest.mark.parametrize("beta", [0.0, -0.1, float("inf")])
    def test_rejects_non_positive_beta(self, beta):
        with pytest.raises(ValueError, match="beta"):
            LDA(LDAConfig(n_topics=2, beta=beta))


class TestFit:
    def test_outputs_normalised(self, rng):
        docs, _, n_words = block_corpus(rng)
        lda = LDA(LDAConfig(n_topics=3, n_iterations=15, alpha=0.5), rng=rng)
        lda.fit(docs, n_words)
        np.testing.assert_allclose(lda.phi.sum(axis=1), 1.0, rtol=1e-9)
        np.testing.assert_allclose(lda.doc_topic_distribution.sum(axis=1), 1.0, rtol=1e-9)

    def test_recovers_block_structure(self, rng):
        docs, labels, n_words = block_corpus(rng)
        lda = LDA(LDAConfig(n_topics=3, n_iterations=30, alpha=0.2), rng=rng)
        lda.fit(docs, n_words)
        dominant = np.argmax(lda.doc_topic_distribution, axis=1)
        # same-block documents should share their dominant topic
        for topic in range(3):
            block = dominant[labels == topic]
            majority = np.bincount(block, minlength=3).max() / len(block)
            assert majority > 0.8

    def test_requires_fit_before_reads(self):
        lda = LDA(LDAConfig(n_topics=2))
        with pytest.raises(RuntimeError):
            _ = lda.phi

    def test_rejects_empty_vocabulary(self, rng):
        lda = LDA(LDAConfig(n_topics=2), rng=rng)
        with pytest.raises(ValueError):
            lda.fit([np.array([0, 1])], 0)

    @pytest.mark.parametrize("bad_id", [-1, 2, 7])
    def test_rejects_out_of_vocabulary_ids(self, rng, bad_id):
        lda = LDA(LDAConfig(n_topics=2, n_iterations=2), rng=rng)
        with pytest.raises(ValueError, match="word ids"):
            lda.fit([np.array([0, 1]), np.array([0, bad_id, 1])], 2)

    def test_handles_empty_documents(self, rng):
        lda = LDA(LDAConfig(n_topics=2, n_iterations=3), rng=rng)
        lda.fit([np.array([], dtype=np.int64), np.array([0, 1])], 2)
        assert lda.doc_topic_distribution.shape == (2, 2)


def mixed_corpus(n_docs=40, n_words=30, seed=5):
    """Random documents of 0-14 tokens, several of them empty."""
    generator = np.random.default_rng(seed)
    docs = [
        generator.integers(0, n_words, size=generator.integers(0, 15))
        for _ in range(n_docs)
    ]
    docs[0] = docs[17] = np.array([], dtype=np.int64)
    return docs, n_words


def assert_same_draws(first, second):
    np.testing.assert_array_equal(first._assignments, second._assignments)
    np.testing.assert_array_equal(first._topic_word, second._topic_word)
    np.testing.assert_array_equal(first._doc_topic, second._doc_topic)
    assert first.rng.bit_generator.state == second.rng.bit_generator.state


class TestSweepParity:
    """The compiled sweep draws exactly what the Python spec draws."""

    # K=3 sums in a plain loop, K=8 fills the eight pairwise accumulators,
    # K=19 adds a three-term remainder after them
    @pytest.mark.parametrize("n_topics", [3, 8, 19])
    @pytest.mark.parametrize("n_iterations", [0, 4])
    def test_fit_matches_python_spec(self, n_topics, n_iterations):
        docs, n_words = mixed_corpus()
        config = LDAConfig(n_topics=n_topics, n_iterations=n_iterations)
        spec = LDA(config, rng=11)._fit(docs, n_words, gibbs_sweep)
        assert_same_draws(LDA(config, rng=11).fit(docs, n_words), spec)

    @needs_backend
    @pytest.mark.parametrize("n_topics", [3, 8, 19])
    def test_compiled_sweep_matches_python_spec(self, n_topics):
        docs, n_words = mixed_corpus(seed=n_topics)
        config = LDAConfig(n_topics=n_topics, n_iterations=5, alpha=0.3)
        spec = LDA(config, rng=3)._fit(docs, n_words, gibbs_sweep)
        assert_same_draws(LDA(config, rng=3)._fit(docs, n_words, compiled_sweep), spec)

    @needs_backend
    def test_draw_total_is_numpy_pairwise_sum(self):
        """Place the uniform where a sequential total would draw another
        topic than numpy's pairwise ``weights.sum()``: C must follow numpy."""
        generator = np.random.default_rng(0)
        n_topics, n_words, alpha, beta = 19, 3, 0.7, 0.1
        for _ in range(200):
            topic_word = generator.integers(0, 40, size=(n_topics, n_words)).astype(float)
            doc_topic = generator.integers(0, 9, size=(1, n_topics)).astype(float)
            topic_totals = topic_word.sum(axis=1)
            weights = (doc_topic[0] + alpha) * (topic_word[:, 0] + beta) / (
                topic_totals + n_words * beta
            )
            sequential = 0.0
            for weight in weights:
                sequential += weight
            uniform = _straddling_uniform(weights, weights.sum(), sequential)
            if uniform is not None:
                break
        else:
            pytest.fail("no straddling uniform found")
        expected = int(np.searchsorted(np.cumsum(weights), uniform * weights.sum(), "right"))
        # the sweep first removes the token (word 0, topic 0) it resamples
        topic_word[0, 0] += 1
        doc_topic[0, 0] += 1
        topic_totals[0] += 1
        assignments = np.zeros(1, dtype=np.int64)
        _compiled.lda_sweep(
            np.zeros(1, dtype=np.int64), np.array([0, 1]), assignments,
            topic_word, doc_topic, topic_totals, alpha, beta, np.array([uniform]),
        )
        assert assignments[0] == expected

    @needs_backend
    def test_fit_runs_compiled_when_backend_loads(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the Python sweep ran")

        monkeypatch.setattr(lda_module, "gibbs_sweep", refuse)
        docs, n_words = mixed_corpus()
        LDA(LDAConfig(n_topics=3, n_iterations=2), rng=0).fit(docs, n_words)

    def test_segmentation_identical_on_both_paths(self, twitter_tiny, monkeypatch):
        graph, _ = twitter_tiny
        fitted = segment_users_by_topic(graph, 4, lda_iterations=5, rng=0)
        monkeypatch.setenv(_compiled.DISABLE_ENV, "1")
        spec = segment_users_by_topic(graph, 4, lda_iterations=5, rng=0)
        assert [s.segment_id for s in fitted] == [s.segment_id for s in spec]
        for ours, theirs in zip(fitted, spec):
            np.testing.assert_array_equal(ours.users, theirs.users)


def _straddling_uniform(weights, pairwise, sequential):
    """A uniform whose draw index differs between the two totals, if any."""
    cumulative = np.cumsum(weights)
    for bound in cumulative[:-1]:
        uniform = bound / pairwise
        for _ in range(4):
            uniform = np.nextafter(uniform, 0.0)
        for _ in range(8):
            first = np.searchsorted(cumulative, uniform * pairwise, "right")
            second = np.searchsorted(cumulative, uniform * sequential, "right")
            if first != second:
                return float(uniform)
            uniform = np.nextafter(uniform, 1.0)
    return None


class TestUserSegmentation:
    def test_dominant_topic_per_user(self, rng):
        docs, labels, n_words = block_corpus(rng)
        lda = LDA(LDAConfig(n_topics=3, n_iterations=20, alpha=0.2), rng=rng)
        lda.fit(docs, n_words)
        # users own consecutive same-topic docs: user u -> docs with label u%3
        doc_user = labels.copy()  # user id == planted topic id
        user_topics = lda.dominant_topic_per_user(doc_user, 3)
        assert len(set(user_topics.tolist())) == 3

    def test_dominant_topic_per_user_matches_loop(self):
        docs, n_words = mixed_corpus()
        lda = LDA(LDAConfig(n_topics=5, n_iterations=3), rng=2).fit(docs, n_words)
        doc_user = np.arange(len(docs)) % 7  # user 7 owns no document
        expected = np.zeros((8, 5))
        for d, user in enumerate(doc_user):
            expected[user] += lda._doc_topic[d]
        expected[expected.sum(axis=1) == 0, 0] = 1.0
        np.testing.assert_array_equal(
            lda.dominant_topic_per_user(doc_user, 8), np.argmax(expected, axis=1)
        )


class TestInference:
    def test_infer_document_identifies_block(self, rng):
        docs, _, n_words = block_corpus(rng)
        lda = LDA(LDAConfig(n_topics=3, n_iterations=25, alpha=0.2), rng=rng)
        lda.fit(docs, n_words)
        # a fresh document from block 0's words
        mixture = lda.infer_document(np.arange(5))
        block0_topic = np.argmax(lda.doc_topic_distribution[0])
        assert np.argmax(mixture) == block0_topic

    def test_perplexity_better_than_uniform(self, rng):
        docs, _, n_words = block_corpus(rng)
        lda = LDA(LDAConfig(n_topics=3, n_iterations=25, alpha=0.2), rng=rng)
        lda.fit(docs, n_words)
        assert lda.perplexity() < n_words  # uniform model scores exactly n_words

    def test_heldout_perplexity(self, rng):
        docs, _, n_words = block_corpus(rng)
        lda = LDA(LDAConfig(n_topics=3, n_iterations=15, alpha=0.2), rng=rng)
        lda.fit(docs, n_words)
        heldout = [np.arange(8), np.arange(10, 18)]
        assert lda.perplexity(heldout) > 0
