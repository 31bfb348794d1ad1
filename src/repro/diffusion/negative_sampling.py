"""Negative-link sampling for training and evaluation.

Two uses in the paper: the ``nu`` M-step "randomly sample[s] the same
amount of non-observed diffusion links as negative instances" (Sect. 4.2),
and AUC evaluation samples as many negative links as held-out positives
(Sect. 6.1).

Both samplers are rejection samplers over i.i.d. proposals, run in batches
(:func:`_rejection_sample`): each round draws many proposals at once and
applies every rejection rule as an array mask, which is the law of the
one-proposal-at-a-time loop (DESIGN.md §3, item 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ..graph.social_graph import SocialGraph
from ..sampling.rng import RngLike, ensure_rng

#: most proposals drawn in one rejection round, so a request for more
#: negatives than exist holds bounded memory while it spends its budget
MAX_BATCH = 1 << 16


@dataclass(frozen=True)
class WordDocumentIndex:
    """Lookup tables of the diffusion negative sampler for one graph.

    A fit builds them once (:func:`build_word_document_index`) and every
    M-step reuses them.
    """

    #: CSR word -> documents containing it, ascending
    word_ptr: np.ndarray
    word_docs: np.ndarray
    #: CSR document -> its distinct words, ascending
    doc_ptr: np.ndarray
    doc_words: np.ndarray
    #: running sum of the 1/df² rare-word weights over ``doc_words``; a
    #: document's slice minus the sum before it is its cumulative weight
    word_cum: np.ndarray
    doc_user: np.ndarray
    doc_time: np.ndarray
    max_time: int
    #: sorted ``source * n_docs + target`` keys of the observed diffusion links
    observed: np.ndarray

    def __getitem__(self, word: int) -> np.ndarray:
        """Documents containing ``word``."""
        return self.word_docs[self.word_ptr[word] : self.word_ptr[word + 1]]

    def rare_words(self, docs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One word of each document in ``docs`` (none of them empty), drawn
        with probability inversely proportional to its squared document
        frequency: rare words are topic-indicative, so a non-link through
        one is on-topic and cannot be rejected by surface similarity alone."""
        start, end = self.doc_ptr[docs], self.doc_ptr[docs + 1]
        before = np.where(start > 0, self.word_cum[start - 1], 0.0)
        target = before + rng.random(len(docs)) * (self.word_cum[end - 1] - before)
        chosen = np.searchsorted(self.word_cum, target, side="right")
        return self.doc_words[np.clip(chosen, start, end - 1)]


def build_word_document_index(graph: SocialGraph) -> WordDocumentIndex:
    """Inverted word -> documents index and the other per-graph tables of
    :func:`sample_negative_diffusion_pairs`."""
    n_docs = graph.n_documents
    lengths = np.asarray([len(doc.words) for doc in graph.documents], dtype=np.int64)
    tokens = np.concatenate(
        [np.asarray(doc.words, dtype=np.int64) for doc in graph.documents]
        + [np.zeros(0, dtype=np.int64)]
    )
    n_words = max(graph.n_words, 1)
    owner = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
    pairs = np.unique(owner * n_words + tokens)
    pair_doc, doc_words = np.divmod(pairs, n_words)
    frequency = np.bincount(doc_words, minlength=n_words)
    doc_ptr = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair_doc, minlength=n_docs), out=doc_ptr[1:])
    word_ptr = np.zeros(n_words + 1, dtype=np.int64)
    np.cumsum(frequency, out=word_ptr[1:])
    doc_time = np.asarray([doc.timestamp for doc in graph.documents], dtype=np.int64)
    return WordDocumentIndex(
        word_ptr=word_ptr,
        word_docs=pair_doc[np.argsort(doc_words, kind="stable")],
        doc_ptr=doc_ptr,
        doc_words=doc_words,
        word_cum=np.cumsum(1.0 / frequency[doc_words].astype(np.float64) ** 2),
        doc_user=graph.document_user_array(),
        doc_time=doc_time,
        max_time=int(doc_time.max()) if n_docs else 0,
        observed=_pair_keys(graph.diffusion_pairs(), n_docs),
    )


def sample_negative_diffusion_pairs(
    graph: SocialGraph,
    n_samples: int,
    rng: RngLike = None,
    exclude: set[tuple[int, int]] | None = None,
    allow_fewer: bool = False,
    hard_fraction: float = 0.5,
    word_index: WordDocumentIndex | None = None,
    timestamp_mode: str = "uniform",
) -> list[tuple[int, int, int]]:
    """Sample ``(source_doc, target_doc, timestamp)`` triples absent from E.

    Pairs between documents of the same user are rejected (they cannot carry
    a diffusion decision), as are observed pairs and anything in ``exclude``.

    A non-observed link ``E^t_ij = 0`` is a (pair, time) event: with the
    default ``timestamp_mode="uniform"`` negatives get a uniform random time
    bucket, so the topic-popularity factor ``n_tz`` can discriminate
    diffusions (which happen while their topic trends) from non-events.
    ``timestamp_mode="source"`` stamps the source document's time instead.

    ``hard_fraction`` of the negatives are *content-plausible*: the two
    documents share at least one word. Purely uniform negatives are almost
    always off-topic, which lets raw content similarity solve the task and
    hides the community/diffusion structure the paper evaluates; mixing in
    shared-word non-links keeps the discrimination problem about *who
    diffuses whom*, not *what looks alike* (DESIGN.md §3).

    ``word_index`` is the graph's :func:`build_word_document_index`; it is
    built here when not given.
    """
    generator = ensure_rng(rng)
    if not 0.0 <= hard_fraction <= 1.0:
        raise ValueError("hard_fraction must lie in [0, 1]")
    if timestamp_mode not in ("uniform", "source"):
        raise ValueError("timestamp_mode must be 'uniform' or 'source'")
    n_docs = graph.n_documents
    if n_docs < 2:
        raise ValueError("need at least two documents to sample negatives")
    table = word_index if word_index is not None else build_word_document_index(graph)
    if len(table.doc_user) != n_docs:
        raise ValueError("word_index was built for a different graph")

    def propose(size: int) -> tuple[np.ndarray, np.ndarray]:
        source = generator.integers(0, n_docs, size)
        target = generator.integers(0, n_docs, size)
        passed = np.ones(size, dtype=bool)
        hard = np.flatnonzero(generator.random(size) < hard_fraction)
        # a hard proposal's target shares a rare word of its source
        has_words = table.doc_ptr[source[hard] + 1] > table.doc_ptr[source[hard]]
        passed[hard[~has_words]] = False
        hard = hard[has_words]
        if len(hard):
            words = table.rare_words(source[hard], generator)
            start = table.word_ptr[words]
            offset = generator.integers(0, table.word_ptr[words + 1] - start)
            target[hard] = table.word_docs[start + offset]
        passed &= table.doc_user[source] != table.doc_user[target]  # and i == j
        return source * n_docs + target, passed

    forbidden = table.observed
    if exclude:
        forbidden = np.union1d(forbidden, _pair_keys(exclude, n_docs))
    keys = _rejection_sample(propose, n_samples, forbidden)
    if len(keys) < n_samples and not allow_fewer:
        raise RuntimeError(
            f"could only sample {len(keys)}/{n_samples} negative diffusion pairs"
        )
    source, target = np.divmod(keys, n_docs)
    if timestamp_mode == "uniform":
        timestamps = generator.integers(0, table.max_time + 1, len(keys))
    else:
        timestamps = table.doc_time[source]
    return list(zip(source.tolist(), target.tolist(), timestamps.tolist()))


def sample_negative_friendship_pairs(
    graph: SocialGraph,
    n_samples: int,
    rng: RngLike = None,
    exclude: set[tuple[int, int]] | None = None,
) -> list[tuple[int, int]]:
    """Sample directed user pairs absent from F (friendship AUC negatives)."""
    generator = ensure_rng(rng)
    n_users = graph.n_users
    if n_users < 2:
        raise ValueError("need at least two users to sample negatives")

    def propose(size: int) -> tuple[np.ndarray, np.ndarray]:
        source = generator.integers(0, n_users, size)
        target = generator.integers(0, n_users, size)
        return source * n_users + target, source != target

    forbidden = _pair_keys(graph.friendship_pairs(), n_users)
    if exclude:
        forbidden = np.union1d(forbidden, _pair_keys(exclude, n_users))
    keys = _rejection_sample(propose, n_samples, forbidden)
    if len(keys) < n_samples:
        raise RuntimeError(
            f"could only sample {len(keys)}/{n_samples} negative friendship pairs"
        )
    source, target = np.divmod(keys, n_users)
    return list(zip(source.tolist(), target.tolist()))


def _pair_keys(pairs: Iterable[tuple[int, int]], n: int) -> np.ndarray:
    """Sorted distinct ``a * n + b`` for the pairs ``(a, b)`` with both ends
    in ``[0, n)``."""
    array = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
    inside = ((array >= 0) & (array < n)).all(axis=1)
    return np.unique(array[inside, 0] * n + array[inside, 1])


def _rejection_sample(
    propose: Callable[[int], tuple[np.ndarray, np.ndarray]],
    n_samples: int,
    forbidden: np.ndarray,
) -> np.ndarray:
    """Keys of up to ``n_samples`` distinct accepted proposals, in draw order.

    ``propose(size)`` draws ``size`` i.i.d. proposals and returns their keys
    with a mask of those passing the proposal's own checks. A proposal is
    accepted when it passes, its key is not in the sorted ``forbidden``
    keys, and no earlier proposal was accepted with the same key: within a
    round, the first passing occurrence of a key is the one a sequential
    loop would accept. Sampling stops at ``n_samples`` keys or after
    ``100 * n_samples + 1000`` proposals, the sequential loop's budget.
    """
    budget = n_samples * 100 + 1000
    accepted = np.zeros(0, dtype=np.int64)
    attempts = 0
    while len(accepted) < n_samples and attempts < budget:
        needed = n_samples - len(accepted)
        # size the round from the acceptance rate so far (a half at first)
        rate = len(accepted) / attempts if len(accepted) else 0.5
        size = int(min(MAX_BATCH, budget - attempts, 1.1 * needed / rate + 16))
        keys, passed = propose(size)
        attempts += size
        keys = keys[passed]
        # each distinct key's first passing occurrence, kept when allowed
        distinct, first = np.unique(keys, return_index=True)
        first = first[~np.isin(distinct, forbidden, assume_unique=True)]
        fresh = keys[np.sort(first)][:needed]
        accepted = np.concatenate([accepted, fresh])
        forbidden = np.sort(np.concatenate([forbidden, fresh]))
    return accepted

