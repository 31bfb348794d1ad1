"""The batched negative samplers against the one-proposal-at-a-time loop.

``scalar_loop_negatives`` is the sequential rejection loop the batched
sampler replaced, kept here as the oracle: both must draw negatives from
the same law, though not draw for draw.
"""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from repro.core import CPDConfig, CPDModel
from repro.core import model as model_module
from repro.diffusion import negative_sampling
from repro.diffusion.negative_sampling import (
    MAX_BATCH,
    build_word_document_index,
    sample_negative_diffusion_pairs,
    sample_negative_friendship_pairs,
)
from repro.graph import DiffusionLink, Document, SocialGraph, User, Vocabulary

#: negatives per call and calls per sampler in the distribution tests
PER_CALL = 40
CALLS = 150


def scalar_loop_negatives(graph, n_samples, rng, hard_fraction=0.5):
    """The sequential sampler: one proposal, then every rejection check."""
    index: dict[int, list[int]] = {}
    for doc in graph.documents:
        for word in set(doc.words.tolist()):
            index.setdefault(word, []).append(doc.doc_id)
    observed = graph.diffusion_pairs()
    doc_user = graph.document_user_array()
    max_time = max(doc.timestamp for doc in graph.documents)
    n_docs = graph.n_documents
    negatives, seen = [], set()
    attempts = 0
    while len(negatives) < n_samples and attempts < n_samples * 100 + 1000:
        attempts += 1
        i = int(rng.integers(0, n_docs))
        if rng.random() < hard_fraction:
            words = np.unique(graph.documents[i].words)
            if len(words) == 0:
                continue
            weights = 1.0 / np.asarray([len(index[int(w)]) for w in words]) ** 2
            word = int(words[rng.choice(len(words), p=weights / weights.sum())])
            pool = index[word]
            j = pool[int(rng.integers(0, len(pool)))]
        else:
            j = int(rng.integers(0, n_docs))
        if i == j or doc_user[i] == doc_user[j]:
            continue
        if (i, j) in observed or (i, j) in seen:
            continue
        seen.add((i, j))
        negatives.append((i, j, int(rng.integers(0, max_time + 1))))
    return negatives


def draw_pairs(sampler, graph, seed):
    rng = np.random.default_rng(seed)
    pairs = [p for _ in range(CALLS) for p in sampler(graph, PER_CALL, rng)]
    return np.asarray(pairs, dtype=np.int64)


def batched(graph, n_samples, rng, table=None):
    return sample_negative_diffusion_pairs(graph, n_samples, rng, word_index=table)


def homogeneity_pvalue(a, b, n_bins):
    """Chi-square test that two samples of bin ids share one distribution."""
    table = np.vstack([np.bincount(a, minlength=n_bins), np.bincount(b, minlength=n_bins)])
    table = table[:, table.sum(axis=0) > 0]
    return stats.chi2_contingency(table).pvalue


def inverse_df_variant(table):
    """The same tables with words weighted 1/df instead of 1/df²."""
    frequency = np.diff(table.word_ptr)[table.doc_words]
    return dataclasses.replace(table, word_cum=np.cumsum(1.0 / frequency))


def word_choice_pvalue(table, per_doc=400, seed=3):
    """Goodness of fit of ``table.rare_words`` to the 1/df² law: a Pearson
    chi-square over (document, word) cells, ``per_doc`` draws per document
    (cells expecting fewer than 5 draws pooled within their document)."""
    rng = np.random.default_rng(seed)
    nonempty = np.flatnonzero(np.diff(table.doc_ptr) > 0)
    words = table.rare_words(np.repeat(nonempty, per_doc), rng).reshape(-1, per_doc)
    frequency = np.diff(table.word_ptr)
    statistic, dof = 0.0, 0
    for doc, drawn in zip(nonempty, words):
        own = table.doc_words[table.doc_ptr[doc] : table.doc_ptr[doc + 1]]
        weights = 1.0 / frequency[own] ** 2.0
        expected = per_doc * weights / weights.sum()
        observed = (drawn[:, None] == own).sum(axis=0)
        assert observed.sum() == per_doc  # every draw is one of the doc's words
        small = expected < 5
        if small.any():
            observed = np.r_[observed[~small], observed[small].sum()]
            expected = np.r_[expected[~small], expected[small].sum()]
        statistic += ((observed - expected) ** 2 / expected).sum()
        dof += len(expected) - 1
    return stats.chi2.sf(statistic, dof)


class TestSameLawAsScalarLoop:
    @pytest.fixture(scope="class")
    def samples(self, twitter_tiny):
        graph, _ = twitter_tiny
        return {
            "loop": draw_pairs(scalar_loop_negatives, graph, seed=11),
            "batched": draw_pairs(batched, graph, seed=12),
        }

    @staticmethod
    def shared_word_share(graph, pairs):
        incidence = np.zeros((graph.n_documents, graph.n_words), dtype=bool)
        for doc in graph.documents:
            incidence[doc.doc_id, doc.words] = True
        return (incidence[pairs[:, 0]] & incidence[pairs[:, 1]]).any(axis=1)

    def test_hard_pair_share(self, twitter_tiny, samples):
        graph, _ = twitter_tiny
        loop = self.shared_word_share(graph, samples["loop"])
        fast = self.shared_word_share(graph, samples["batched"])
        contingency = [[loop.sum(), (~loop).sum()], [fast.sum(), (~fast).sum()]]
        assert stats.chi2_contingency(contingency).pvalue > 1e-3

    def test_source_marginal(self, twitter_tiny, samples):
        graph, _ = twitter_tiny
        pvalue = homogeneity_pvalue(
            samples["loop"][:, 0], samples["batched"][:, 0], graph.n_documents
        )
        assert pvalue > 1e-3

    def test_target_marginal(self, twitter_tiny, samples):
        graph, _ = twitter_tiny
        pvalue = homogeneity_pvalue(
            samples["loop"][:, 1], samples["batched"][:, 1], graph.n_documents
        )
        assert pvalue > 1e-3


class TestRareWordChoice:
    def test_follows_inverse_squared_df(self, twitter_tiny):
        graph, _ = twitter_tiny
        assert word_choice_pvalue(build_word_document_index(graph)) > 1e-3

    def test_rejects_inverse_df(self, twitter_tiny):
        graph, _ = twitter_tiny
        variant = inverse_df_variant(build_word_document_index(graph))
        assert word_choice_pvalue(variant) < 1e-9


class TestOncePerFit:
    CONFIG = CPDConfig(n_communities=4, n_topics=8, n_iterations=5, rho=0.5, alpha=0.5)

    def test_table_built_once(self, twitter_tiny, monkeypatch):
        graph, _ = twitter_tiny
        built, used = [], []
        original_build = negative_sampling.build_word_document_index
        original_sample = model_module.sample_negative_diffusion_pairs

        def counting_build(g):
            built.append(original_build(g))
            return built[-1]

        def recording_sample(*args, **kwargs):
            used.append(kwargs.get("word_index"))
            return original_sample(*args, **kwargs)

        monkeypatch.setattr(negative_sampling, "build_word_document_index", counting_build)
        monkeypatch.setattr(model_module, "sample_negative_diffusion_pairs", recording_sample)
        CPDModel(self.CONFIG, rng=4).fit(graph)
        assert len(built) == 1
        assert len(used) == self.CONFIG.n_iterations
        assert all(table is built[0] for table in used)

    def test_same_seed_same_fit(self, twitter_tiny):
        graph, _ = twitter_tiny
        first = CPDModel(self.CONFIG, rng=4).fit(graph)
        second = CPDModel(self.CONFIG, rng=4).fit(graph)
        np.testing.assert_array_equal(first.doc_community, second.doc_community)
        a, b = first.diffusion, second.diffusion
        np.testing.assert_array_equal(a.eta, b.eta)
        np.testing.assert_array_equal(a.nu, b.nu)
        assert (a.comm_weight, a.pop_weight, a.bias) == (b.comm_weight, b.pop_weight, b.bias)


def one_user_graph(n_docs=5):
    vocab = Vocabulary()
    vocab.encode(["a", "b", "c"])
    documents = [
        Document(d, 0, np.array([d % 3, (d + 1) % 3]), timestamp=d) for d in range(n_docs)
    ]
    users = [User(0, "u0", list(range(n_docs)))]
    return SocialGraph(users, documents, [], [DiffusionLink(0, 1, timestamp=0)], vocab)


class TestEdgeCases:
    def test_single_user_graph_has_no_negatives(self):
        graph = one_user_graph()
        assert sample_negative_diffusion_pairs(graph, 10, 0, allow_fewer=True) == []
        with pytest.raises(RuntimeError):
            sample_negative_diffusion_pairs(graph, 10, 0)

    def test_exhausting_request_keeps_to_budget(self, twitter_tiny, monkeypatch):
        graph, _ = twitter_tiny
        sizes = []
        original = negative_sampling._rejection_sample

        def recording(propose, n_samples, forbidden):
            def counted(size):
                sizes.append(size)
                return propose(size)

            return original(counted, n_samples, forbidden)

        monkeypatch.setattr(negative_sampling, "_rejection_sample", recording)
        n_samples = graph.n_documents**2
        negatives = sample_negative_diffusion_pairs(graph, n_samples, 5, allow_fewer=True)
        assert 0 < len(negatives) < n_samples
        assert len(set((i, j) for i, j, _ in negatives)) == len(negatives)
        assert sum(sizes) <= n_samples * 100 + 1000
        assert max(sizes) == MAX_BATCH  # the cap engaged and held

    def test_exclude_set_confines_sources(self, twitter_tiny):
        graph, _ = twitter_tiny
        n_docs = graph.n_documents
        exclude = {(i, j) for i in range(2, n_docs) for j in range(n_docs)}
        negatives = sample_negative_diffusion_pairs(
            graph, 20, 6, exclude=exclude, hard_fraction=0.0
        )
        assert len(negatives) == 20
        assert {i for i, _j, _t in negatives} <= {0, 1}

    def test_friendship_exclude_set(self, twitter_tiny):
        graph, _ = twitter_tiny
        first = sample_negative_friendship_pairs(graph, 100, 7)
        second = sample_negative_friendship_pairs(graph, 100, 8, exclude=set(first))
        assert not set(first) & set(second)

    def test_friendship_exhaustion_raises(self, twitter_tiny):
        graph, _ = twitter_tiny
        with pytest.raises(RuntimeError):
            sample_negative_friendship_pairs(graph, graph.n_users**2, 9)
