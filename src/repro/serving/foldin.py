"""Fold-in inference: assign unseen documents against a frozen CPD model.

Production serving faces content the offline fit never saw: a new tweet
arrives after the model was profiled. Refitting is out of the question at
serving latency, so the standard topic-model answer is *fold-in*: hold the
fitted parameters fixed and run a few collapsed Gibbs draws over only the
new document's latent ``(community, topic)`` pair.

With the model frozen the Eq. 13 / Eq. 14 conditionals collapse: count
perturbations from a single held-out document vanish into the fitted
estimators, the ascending-factorial word likelihood of the sweep
(DESIGN.md §4 item 3) degenerates to a plain product of ``phi`` gathers,
and no link factors apply (a document that just arrived has no diffusion
links yet). What remains is the two-step scan

    z | c  ~  theta[c, z] * prod_{w in d} phi[z, w]          (Eq. 13 frozen)
    c | z  ~  pi[u, c] * theta[c, z]                         (Eq. 14 frozen)

which this module evaluates batched over all documents at once in numpy:
one scatter-add builds every document's word log-likelihood row, and each
Gibbs step is a single
:func:`repro.sampling.categorical.sample_many_log_categorical` call over
the whole batch — no per-document Python work inside a sweep.

Documents by unknown users (``user_id=None`` / ``-1``) fall back to a
uniform community prior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.result import CPDResult
from ..sampling.categorical import sample_many_log_categorical
from ..sampling.rng import RngLike, ensure_rng

#: floor for log() of fitted probabilities, matching the apps' convention
_LOG_FLOOR = 1e-300


@dataclass
class FoldInResult:
    """Posterior assignments for a batch of folded-in documents."""

    #: MAP community per document under the sampled posterior, shape (N,)
    communities: np.ndarray
    #: MAP topic per document under the sampled posterior, shape (N,)
    topics: np.ndarray
    #: sampled community posterior, shape (N, C); rows sum to one
    community_posterior: np.ndarray
    #: sampled topic posterior, shape (N, Z); rows sum to one
    topic_posterior: np.ndarray
    #: Gibbs sweeps that contributed samples (after burn-in)
    n_samples: int

    def __len__(self) -> int:
        return int(self.communities.shape[0])


def _word_log_likelihood(
    result: CPDResult, documents: Sequence[np.ndarray]
) -> np.ndarray:
    """``L[d, z] = sum_{w in d} log phi[z, w]`` for every document, batched."""
    n_docs = len(documents)
    log_phi = np.log(np.maximum(result.phi, _LOG_FLOOR))  # (Z, W)
    lengths = np.asarray([len(words) for words in documents], dtype=np.int64)
    likelihood = np.zeros((n_docs, result.n_topics))
    if lengths.sum() == 0:
        return likelihood
    all_words = np.concatenate(
        [np.asarray(words, dtype=np.int64) for words in documents]
    )
    if len(all_words) and (all_words.min() < 0 or all_words.max() >= result.n_words):
        raise ValueError("fold-in documents contain out-of-vocabulary word ids")
    doc_index = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
    np.add.at(likelihood, doc_index, log_phi[:, all_words].T)
    return likelihood


def _community_log_prior(
    result: CPDResult, users: Sequence[int | None] | np.ndarray | None, n_docs: int
) -> np.ndarray:
    """``log pi[u]`` rows, uniform for unknown users, shape (N, C)."""
    uniform = np.full(result.n_communities, -np.log(result.n_communities))
    if users is None:
        return np.tile(uniform, (n_docs, 1))
    if len(users) != n_docs:
        raise ValueError("users must align with documents")
    log_pi = np.log(np.maximum(result.pi, _LOG_FLOOR))
    rows = np.empty((n_docs, result.n_communities))
    for index, user in enumerate(users):
        user = -1 if user is None else int(user)
        if user < 0:
            rows[index] = uniform
        elif user >= result.n_users:
            raise ValueError(f"user id {user} outside the fitted model's {result.n_users} users")
        else:
            rows[index] = log_pi[user]
    return rows


def fold_in_documents(
    result: CPDResult,
    documents: Sequence[np.ndarray],
    users: Sequence[int | None] | np.ndarray | None = None,
    n_sweeps: int = 25,
    burn_in: int = 5,
    rng: RngLike = None,
) -> FoldInResult:
    """Fold a batch of unseen documents into a frozen fit.

    ``documents`` holds vocabulary-id arrays (encode raw tokens through the
    fitted :class:`~repro.graph.vocabulary.Vocabulary` first, skipping
    unknown words); ``users`` the publisher ids, with ``None``/``-1``
    marking unknown users. Runs ``n_sweeps`` batched Gibbs sweeps over the
    ``(community, topic)`` pairs, discards ``burn_in``, and returns the
    sampled posteriors with their MAP assignments.
    """
    if n_sweeps < 1:
        raise ValueError("n_sweeps must be at least 1")
    if not 0 <= burn_in < n_sweeps:
        raise ValueError("burn_in must be in [0, n_sweeps)")
    generator = ensure_rng(rng)
    n_docs = len(documents)
    n_communities, n_topics = result.n_communities, result.n_topics
    if n_docs == 0:
        return FoldInResult(
            communities=np.zeros(0, dtype=np.int64),
            topics=np.zeros(0, dtype=np.int64),
            community_posterior=np.zeros((0, n_communities)),
            topic_posterior=np.zeros((0, n_topics)),
            n_samples=n_sweeps - burn_in,
        )

    word_likelihood = _word_log_likelihood(result, documents)  # (N, Z)
    log_prior = _community_log_prior(result, users, n_docs)  # (N, C)
    log_theta = np.log(np.maximum(result.theta, _LOG_FLOOR))  # (C, Z)

    # init: draw communities from the user prior alone, matching the
    # sampler's init-before-first-sweep structure
    communities = sample_many_log_categorical(log_prior, generator)

    community_counts = np.zeros((n_docs, n_communities))
    topic_counts = np.zeros((n_docs, n_topics))
    doc_range = np.arange(n_docs)
    for sweep in range(n_sweeps):
        # z | c (Eq. 13, frozen): theta row of the current community + words
        topics = sample_many_log_categorical(
            log_theta[communities] + word_likelihood, generator
        )
        # c | z (Eq. 14, frozen): user prior + theta column of the topic
        communities = sample_many_log_categorical(
            log_prior + log_theta[:, topics].T, generator
        )
        if sweep >= burn_in:
            community_counts[doc_range, communities] += 1.0
            topic_counts[doc_range, topics] += 1.0

    n_samples = n_sweeps - burn_in
    return FoldInResult(
        communities=np.argmax(community_counts, axis=1).astype(np.int64),
        topics=np.argmax(topic_counts, axis=1).astype(np.int64),
        community_posterior=community_counts / n_samples,
        topic_posterior=topic_counts / n_samples,
        n_samples=n_samples,
    )
