"""Latent Dirichlet Allocation with collapsed Gibbs sampling (Blei et al. [3]).

LDA is a substrate, not the contribution: the paper uses it (i) to build the
"first detect, then aggregate" baselines — Eq. 20 aggregates per-document
LDA topic mixtures into community content profiles — and (ii) to segment
users by dominant topic for the parallel scheduler (Sect. 4.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core import _compiled
from ..sampling.categorical import sample_categorical
from ..sampling.dirichlet import smoothed_probability
from ..sampling.rng import RngLike, ensure_rng


@dataclass
class LDAConfig:
    """Hyper-parameters; priors follow the Griffiths-Steyvers convention."""

    n_topics: int = 10
    alpha: Optional[float] = None
    beta: float = 0.1
    n_iterations: int = 50

    def resolved_alpha(self) -> float:
        """``alpha = 50 / |Z|`` unless set explicitly (paper Sect. 4.2 convention)."""
        return 50.0 / self.n_topics if self.alpha is None else self.alpha


class LDA:
    """Collapsed-Gibbs LDA over documents given as vocabulary-id arrays."""

    def __init__(self, config: LDAConfig, rng: RngLike = None) -> None:
        if config.n_topics < 1:
            raise ValueError("need at least one topic")
        for name, value in (("alpha", config.resolved_alpha()), ("beta", config.beta)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value}")
        self.config = config
        self.rng = ensure_rng(rng)
        self._fitted = False

    # ---------------------------------------------------------------- fitting

    def fit(self, documents: Sequence[np.ndarray], n_words: int) -> "LDA":
        """Run ``n_iterations`` Gibbs sweeps over ``documents``.

        Each word gets its own topic assignment (standard LDA; the
        single-topic-per-document restriction is specific to CPD). Sweeps
        run as one compiled C call each when the backend loads
        (DESIGN.md §10), else through :func:`gibbs_sweep`; both consume
        the Generator identically and produce identical draws.
        """
        compiled = _compiled.backend_status()[0]
        return self._fit(documents, n_words, compiled_sweep if compiled else gibbs_sweep)

    def _fit(self, documents: Sequence[np.ndarray], n_words: int, sweep) -> "LDA":
        n_topics = self.config.n_topics
        alpha = self.config.resolved_alpha()
        beta = self.config.beta
        if n_words < 1:
            raise ValueError("n_words must be positive")

        self._n_words = n_words
        self._documents = [np.asarray(doc, dtype=np.int64) for doc in documents]
        n_docs = len(self._documents)
        lengths = np.array([len(doc) for doc in self._documents], dtype=np.int64)
        indptr = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        words = np.concatenate([np.zeros(0, dtype=np.int64), *self._documents])
        if words.size and (words.min() < 0 or words.max() >= n_words):
            raise ValueError(f"word ids must lie in [0, {n_words})")

        # one rng.integers call per document, as the per-token spec always drew
        assignments = np.concatenate(
            [np.zeros(0, dtype=np.int64)]
            + [self.rng.integers(0, n_topics, size=len(doc)) for doc in self._documents]
        )
        topic_word = np.zeros((n_topics, n_words), dtype=np.float64)
        doc_topic = np.zeros((n_docs, n_topics), dtype=np.float64)
        topic_totals = np.zeros(n_topics, dtype=np.float64)
        np.add.at(topic_word, (assignments, words), 1.0)
        np.add.at(doc_topic, (np.repeat(np.arange(n_docs), lengths), assignments), 1.0)
        np.add.at(topic_totals, assignments, 1.0)

        for _ in range(self.config.n_iterations):
            sweep(
                words, indptr, assignments, topic_word, doc_topic, topic_totals,
                alpha, beta, self.rng,
            )

        self._topic_word = topic_word
        self._doc_topic = doc_topic
        self._assignments = assignments
        self._fitted = True
        return self

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("call fit() before reading model outputs")

    # ---------------------------------------------------------------- outputs

    @property
    def phi(self) -> np.ndarray:
        """Topic-word distributions, shape ``(n_topics, n_words)``."""
        self._require_fitted()
        return smoothed_probability(self._topic_word, self.config.beta)

    @property
    def doc_topic_distribution(self) -> np.ndarray:
        """Per-document topic mixtures ``theta*_d``, shape ``(n_docs, n_topics)``."""
        self._require_fitted()
        return smoothed_probability(self._doc_topic, self.config.resolved_alpha())

    def dominant_topics(self) -> np.ndarray:
        """Most frequent topic per document (parallel-scheduler segmentation)."""
        self._require_fitted()
        return np.argmax(self._doc_topic, axis=1)

    def dominant_topic_per_user(self, doc_user: np.ndarray, n_users: int) -> np.ndarray:
        """Each user's most frequently assigned topic across her documents.

        This is exactly the segmentation key of Sect. 4.3: users go to the
        segment of their dominant topic.
        """
        self._require_fitted()
        user_topic = np.zeros((n_users, self.config.n_topics), dtype=np.float64)
        np.add.at(user_topic, np.asarray(doc_user, dtype=np.int64), self._doc_topic)
        empty = user_topic.sum(axis=1) == 0
        user_topic[empty, 0] = 1.0
        return np.argmax(user_topic, axis=1)

    def infer_document(self, words: np.ndarray, n_sweeps: int = 20) -> np.ndarray:
        """Fold in a held-out document and return its topic mixture."""
        self._require_fitted()
        words = np.asarray(words, dtype=np.int64)
        n_topics = self.config.n_topics
        alpha = self.config.resolved_alpha()
        phi = self.phi
        counts = np.zeros(n_topics)
        assignments = self.rng.integers(0, n_topics, size=len(words))
        for z in assignments:
            counts[z] += 1
        for _ in range(n_sweeps):
            for position, word in enumerate(words):
                counts[assignments[position]] -= 1
                weights = (counts + alpha) * phi[:, word]
                z_new = sample_categorical(weights, self.rng)
                assignments[position] = z_new
                counts[z_new] += 1
        return smoothed_probability(counts, alpha)

    def perplexity(self, documents: Optional[Sequence[np.ndarray]] = None) -> float:
        """Corpus perplexity ``exp(-sum log p(w) / n_tokens)`` under the model."""
        self._require_fitted()
        phi = self.phi
        if documents is None:
            documents = self._documents
            mixtures = self.doc_topic_distribution
        else:
            documents = [np.asarray(doc, dtype=np.int64) for doc in documents]
            mixtures = np.stack([self.infer_document(doc) for doc in documents])
        log_likelihood = 0.0
        n_tokens = 0
        for mixture, doc in zip(mixtures, documents):
            if len(doc) == 0:
                continue
            word_probs = mixture @ phi[:, doc]
            log_likelihood += float(np.log(np.maximum(word_probs, 1e-300)).sum())
            n_tokens += len(doc)
        if n_tokens == 0:
            raise ValueError("cannot compute perplexity of an empty corpus")
        return float(np.exp(-log_likelihood / n_tokens))


def gibbs_sweep(
    words: np.ndarray,
    indptr: np.ndarray,
    assignments: np.ndarray,
    topic_word: np.ndarray,
    doc_topic: np.ndarray,
    topic_totals: np.ndarray,
    alpha: float,
    beta: float,
    rng: np.random.Generator,
) -> None:
    """One collapsed-Gibbs pass over every token of a CSR layout, in place.

    The executable spec of the compiled ``cpd_lda_sweep`` and the
    no-toolchain path: tokens in document order, one
    :func:`sample_categorical` draw (one uniform) per token.
    """
    n_words = topic_word.shape[1]
    for d in range(len(indptr) - 1):
        for position in range(indptr[d], indptr[d + 1]):
            word = words[position]
            z_old = assignments[position]
            topic_word[z_old, word] -= 1
            doc_topic[d, z_old] -= 1
            topic_totals[z_old] -= 1

            weights = (
                (doc_topic[d] + alpha)
                * (topic_word[:, word] + beta)
                / (topic_totals + n_words * beta)
            )
            z_new = sample_categorical(weights, rng)

            assignments[position] = z_new
            topic_word[z_new, word] += 1
            doc_topic[d, z_new] += 1
            topic_totals[z_new] += 1


def compiled_sweep(
    words: np.ndarray,
    indptr: np.ndarray,
    assignments: np.ndarray,
    topic_word: np.ndarray,
    doc_topic: np.ndarray,
    topic_totals: np.ndarray,
    alpha: float,
    beta: float,
    rng: np.random.Generator,
) -> None:
    """:func:`gibbs_sweep` as one C call over a pre-drawn uniform per token.

    ``rng.random(n_tokens)`` consumes the same PCG64 stream as the spec's
    one scalar ``random()`` per token, so the draws are identical.
    """
    _compiled.lda_sweep(
        words, indptr, assignments, topic_word, doc_topic, topic_totals,
        alpha, beta, rng.random(words.shape[0]),
    )
