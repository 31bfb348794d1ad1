"""Count state of the collapsed Gibbs sampler.

The collapsed posterior (paper Eq. 12) depends on the data only through
count matrices: ``n_u^c`` (documents of user u in community c), ``n_c^z``
(documents of community c on topic z) and ``n_z^w`` (occurrences of word w
under topic z). This module owns those counters, the document-level
assignment vectors, and the smoothed estimators ``pi_hat`` / ``theta_hat``
/ ``phi_hat`` the conditionals are built from (Sect. 4.2).

The ``pi_hat`` / ``theta_hat`` matrices are cached across a sweep: one
document move touches exactly one user row and at most two community rows,
so ``assign`` / ``unassign`` record dirty rows and the accessors refresh
only those (DESIGN.md §4). ``pi_hat()`` / ``theta_hat()`` return copies;
the ``*_view`` accessors expose the cache itself for the hot path and must
be treated as read-only.
"""

from __future__ import annotations

import numpy as np

from ..graph.social_graph import SocialGraph, counts_to_indptr, unique_word_csr
from ..sampling.rng import RngLike, ensure_rng
from . import _compiled
from .config import CPDConfig


class CPDState:
    """Mutable assignments + counts; add/remove keep every counter in sync.

    The corpus layout (flat tokens, unique-word CSR, doc -> user) is the
    graph's own read-only arrays (:class:`~repro.graph.SocialGraph`), not a
    copy: a document's words are a slice of the CSR by its pointer. Only
    :meth:`append_documents` gives the state arrays of its own.
    """

    #: the mutable arrays (the parallel runner copies them into its helper
    #: samplers); everything else is immutable corpus layout
    SHARED_FIELDS = (
        "doc_community",
        "doc_topic",
        "user_community",
        "community_topic",
        "topic_word",
        "user_totals",
        "community_totals",
        "topic_totals",
    )

    def __init__(self, graph: SocialGraph, config: CPDConfig) -> None:
        self.n_users = graph.n_users
        self.n_docs = graph.n_documents
        self.n_words = graph.n_words
        self.n_communities = config.n_communities
        self.n_topics = config.n_topics
        self.alpha = config.resolved_alpha
        self.rho = config.resolved_rho
        self.beta = config.beta

        self.doc_topic = np.full(self.n_docs, -1, dtype=np.int64)
        self.doc_community = np.full(self.n_docs, -1, dtype=np.int64)
        #: number of currently unassigned documents; lets the sweep kernel
        #: prove cheaply that no link endpoint can be mid-resample
        self.n_unassigned = self.n_docs

        self.user_community = np.zeros((self.n_users, self.n_communities), dtype=np.float64)
        self.community_topic = np.zeros((self.n_communities, self.n_topics), dtype=np.float64)
        self.topic_word = np.zeros((self.n_topics, self.n_words), dtype=np.float64)
        self.user_totals = np.zeros(self.n_users, dtype=np.float64)
        self.community_totals = np.zeros(self.n_communities, dtype=np.float64)
        self.topic_totals = np.zeros(self.n_topics, dtype=np.float64)

        # the graph's read-only corpus layout, shared rather than copied:
        # doc d's words are _all_words[_word_indptr[d]:_word_indptr[d+1]],
        # its unique words and multiplicities the same slice of the unique
        # CSR by _unique_indptr (assign/unassign then use a fancy-indexed
        # in-place add, safe on unique indices); appends concatenate new
        # arrays and leave the graph's alone
        self._doc_user = graph.doc_user
        self._doc_word_lengths = graph.doc_lengths
        self._word_indptr = graph.token_ptr
        self._all_words = graph.tokens
        self._unique_words = graph.unique_words
        self._unique_counts = graph.unique_counts
        self._unique_indptr = graph.unique_ptr

        # lazily built estimator caches with dirty-row invalidation
        self._pi_cache: np.ndarray | None = None
        self._theta_cache: np.ndarray | None = None
        self._pi_dirty: set[int] = set()
        self._theta_dirty: set[int] = set()

    # -------------------------------------------------------------- mutation

    def assign(self, doc_id: int, community: int, topic: int) -> None:
        """Assign ``(community, topic)`` to an unassigned document."""
        if self.doc_topic[doc_id] != -1:
            raise ValueError(f"document {doc_id} is already assigned")
        user = self._doc_user[doc_id]
        self.doc_community[doc_id] = community
        self.doc_topic[doc_id] = topic
        self.user_community[user, community] += 1
        self.user_totals[user] += 1
        self.community_topic[community, topic] += 1
        self.community_totals[community] += 1
        lo, hi = self._unique_indptr[doc_id], self._unique_indptr[doc_id + 1]
        self.topic_word[topic][self._unique_words[lo:hi]] += self._unique_counts[lo:hi]
        self.topic_totals[topic] += self._doc_word_lengths[doc_id]
        self.n_unassigned -= 1
        if self._pi_cache is not None:
            self._pi_dirty.add(int(user))
        if self._theta_cache is not None:
            self._theta_dirty.add(int(community))

    def unassign(self, doc_id: int) -> tuple[int, int]:
        """Remove a document's assignment; returns the old ``(community, topic)``."""
        community = int(self.doc_community[doc_id])
        topic = int(self.doc_topic[doc_id])
        if topic == -1:
            raise ValueError(f"document {doc_id} is not assigned")
        user = self._doc_user[doc_id]
        self.user_community[user, community] -= 1
        self.user_totals[user] -= 1
        self.community_topic[community, topic] -= 1
        self.community_totals[community] -= 1
        lo, hi = self._unique_indptr[doc_id], self._unique_indptr[doc_id + 1]
        self.topic_word[topic][self._unique_words[lo:hi]] -= self._unique_counts[lo:hi]
        self.topic_totals[topic] -= self._doc_word_lengths[doc_id]
        self.doc_community[doc_id] = -1
        self.doc_topic[doc_id] = -1
        self.n_unassigned += 1
        if self._pi_cache is not None:
            self._pi_dirty.add(int(user))
        if self._theta_cache is not None:
            self._theta_dirty.add(community)
        return community, topic

    def reassign_many(
        self, doc_ids: np.ndarray, communities: np.ndarray, topics: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Move many assigned documents at once (parallel E-step merge).

        Count matrices are updated by batched scatter-adds instead of a
        per-document unassign/assign round trip. Returns the old
        ``(communities, topics)`` arrays.
        """
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        communities = np.asarray(communities, dtype=np.int64)
        topics = np.asarray(topics, dtype=np.int64)
        if len(doc_ids) == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        if len(np.unique(doc_ids)) != len(doc_ids):
            raise ValueError("reassign_many requires unique document ids")
        if np.any(communities < 0) or np.any(communities >= self.n_communities):
            raise ValueError("community ids out of range")
        if np.any(topics < 0) or np.any(topics >= self.n_topics):
            raise ValueError("topic ids out of range")
        old_communities = self.doc_community[doc_ids].copy()
        old_topics = self.doc_topic[doc_ids].copy()
        if np.any(old_topics < 0):
            raise ValueError("reassign_many requires currently-assigned documents")

        users = self._doc_user[doc_ids]
        np.add.at(self.user_community, (users, old_communities), -1.0)
        np.add.at(self.user_community, (users, communities), 1.0)
        np.add.at(self.community_topic, (old_communities, old_topics), -1.0)
        np.add.at(self.community_topic, (communities, topics), 1.0)
        np.add.at(self.community_totals, old_communities, -1.0)
        np.add.at(self.community_totals, communities, 1.0)

        changed = old_topics != topics
        if np.any(changed):
            moved_docs = doc_ids[changed]
            occurrences = self._occurrence_indices(moved_docs)
            words = self._all_words[occurrences]
            lengths = self._doc_word_lengths[moved_docs]
            np.add.at(
                self.topic_word, (np.repeat(old_topics[changed], lengths), words), -1.0
            )
            np.add.at(self.topic_word, (np.repeat(topics[changed], lengths), words), 1.0)
            np.add.at(self.topic_totals, old_topics[changed], -lengths.astype(np.float64))
            np.add.at(self.topic_totals, topics[changed], lengths.astype(np.float64))

        self.doc_community[doc_ids] = communities
        self.doc_topic[doc_ids] = topics
        if self._pi_cache is not None:
            self._pi_dirty.update(users.tolist())
        if self._theta_cache is not None:
            self._theta_dirty.update(old_communities.tolist())
            self._theta_dirty.update(communities.tolist())
        return old_communities, old_topics

    def append_documents(
        self, doc_words: list[np.ndarray], doc_users: np.ndarray
    ) -> np.ndarray:
        """Grow the state with appended (initially unassigned) documents.

        The streaming update-in-place path (DESIGN.md §6): count matrices
        keep their shapes — only the per-document arrays grow — so a
        warm-started sampler keeps every existing assignment and cache.
        Word ids must already be encoded against the fitted vocabulary and
        users must be known to the state. Returns the new document ids.
        """
        arrays = [np.asarray(words, dtype=np.int64) for words in doc_words]
        doc_users = np.asarray(doc_users, dtype=np.int64)
        n_new = len(arrays)
        if doc_users.shape != (n_new,):
            raise ValueError("doc_users must align with doc_words")
        if n_new == 0:
            return np.zeros(0, dtype=np.int64)
        if np.any(doc_users < 0) or np.any(doc_users >= self.n_users):
            raise ValueError("appended documents reference unknown users")
        for words in arrays:
            if len(words) and (words.min() < 0 or words.max() >= self.n_words):
                raise ValueError("appended documents contain out-of-vocabulary word ids")

        first = self.n_docs
        new_ids = np.arange(first, first + n_new, dtype=np.int64)
        self.n_docs += n_new
        self.doc_topic = np.concatenate(
            [self.doc_topic, np.full(n_new, -1, dtype=np.int64)]
        )
        self.doc_community = np.concatenate(
            [self.doc_community, np.full(n_new, -1, dtype=np.int64)]
        )
        self._doc_user = np.concatenate([self._doc_user, doc_users])
        new_lengths = np.asarray([len(words) for words in arrays], dtype=np.int64)
        self._doc_word_lengths = np.concatenate([self._doc_word_lengths, new_lengths])
        self._word_indptr = counts_to_indptr(self._doc_word_lengths)
        self._all_words = np.concatenate([self._all_words, *arrays])
        words, counts, indptr = unique_word_csr(np.concatenate(arrays), new_lengths)
        self._unique_words = np.concatenate([self._unique_words, words])
        self._unique_counts = np.concatenate([self._unique_counts, counts])
        self._unique_indptr = np.concatenate(
            [self._unique_indptr, indptr[1:] + self._unique_indptr[-1]]
        )
        self.n_unassigned += n_new
        return new_ids

    def assign_many(
        self, doc_ids: np.ndarray, communities: np.ndarray, topics: np.ndarray
    ) -> None:
        """Assign many currently-unassigned documents with batched scatters.

        Counts only — sampler callers must go through
        :meth:`CPDSampler.assign_documents`, which also keeps the
        popularity table ``n_tz`` in sync.
        """
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        communities = np.asarray(communities, dtype=np.int64)
        topics = np.asarray(topics, dtype=np.int64)
        if len(doc_ids) == 0:
            return
        if len(np.unique(doc_ids)) != len(doc_ids):
            raise ValueError("assign_many requires unique document ids")
        if np.any(self.doc_topic[doc_ids] != -1):
            raise ValueError("assign_many requires currently-unassigned documents")
        if np.any(communities < 0) or np.any(communities >= self.n_communities):
            raise ValueError("community ids out of range")
        if np.any(topics < 0) or np.any(topics >= self.n_topics):
            raise ValueError("topic ids out of range")

        users = self._doc_user[doc_ids]
        np.add.at(self.user_community, (users, communities), 1.0)
        np.add.at(self.user_totals, users, 1.0)
        np.add.at(self.community_topic, (communities, topics), 1.0)
        np.add.at(self.community_totals, communities, 1.0)
        lengths = self._doc_word_lengths[doc_ids]
        occurrences = self._occurrence_indices(doc_ids)
        if len(occurrences):
            words = self._all_words[occurrences]
            np.add.at(self.topic_word, (np.repeat(topics, lengths), words), 1.0)
        np.add.at(self.topic_totals, topics, lengths.astype(np.float64))
        self.doc_community[doc_ids] = communities
        self.doc_topic[doc_ids] = topics
        self.n_unassigned -= len(doc_ids)
        if self._pi_cache is not None:
            self._pi_dirty.update(users.tolist())
        if self._theta_cache is not None:
            self._theta_dirty.update(communities.tolist())

    def _occurrence_indices(self, doc_ids: np.ndarray) -> np.ndarray:
        """Flat indices into ``_all_words`` for the given documents' words."""
        starts = self._word_indptr[doc_ids]
        lengths = self._doc_word_lengths[doc_ids]
        total = int(lengths.sum())
        if total == 0:
            return np.zeros(0, dtype=np.int64)
        prefix = np.zeros(len(doc_ids), dtype=np.int64)
        np.cumsum(lengths[:-1], out=prefix[1:])
        return np.repeat(starts - prefix, lengths) + np.arange(total)

    def reset(self) -> None:
        """Drop all assignments and zero every counter."""
        self.doc_topic.fill(-1)
        self.doc_community.fill(-1)
        self.user_community.fill(0.0)
        self.community_topic.fill(0.0)
        self.topic_word.fill(0.0)
        self.user_totals.fill(0.0)
        self.community_totals.fill(0.0)
        self.topic_totals.fill(0.0)
        self.n_unassigned = self.n_docs
        self._drop_caches()

    def load_assignments(self, doc_community: np.ndarray, doc_topic: np.ndarray) -> None:
        """Rebuild counts from snapshot assignment vectors (parallel E-step).

        The rebuild is bincount-based: no per-document Python work, one
        scatter per count matrix.
        """
        doc_community = np.asarray(doc_community, dtype=np.int64)
        doc_topic = np.asarray(doc_topic, dtype=np.int64)
        if doc_community.shape != (self.n_docs,) or doc_topic.shape != (self.n_docs,):
            raise ValueError("assignment snapshots must cover every document")
        if np.any(doc_community < 0) or np.any(doc_community >= self.n_communities):
            raise ValueError("community ids out of range")
        if np.any(doc_topic < 0) or np.any(doc_topic >= self.n_topics):
            raise ValueError("topic ids out of range")

        n_c, n_z, n_w = self.n_communities, self.n_topics, self.n_words
        users = self._doc_user
        self.doc_community = doc_community.copy()
        self.doc_topic = doc_topic.copy()
        self.user_community = np.bincount(
            users * n_c + doc_community, minlength=self.n_users * n_c
        ).reshape(self.n_users, n_c).astype(np.float64)
        self.community_topic = np.bincount(
            doc_community * n_z + doc_topic, minlength=n_c * n_z
        ).reshape(n_c, n_z).astype(np.float64)
        occurrence_topics = np.repeat(doc_topic, self._doc_word_lengths)
        self.topic_word = np.bincount(
            occurrence_topics * n_w + self._all_words, minlength=n_z * n_w
        ).reshape(n_z, n_w).astype(np.float64)
        self.user_totals = np.bincount(users, minlength=self.n_users).astype(np.float64)
        self.community_totals = np.bincount(doc_community, minlength=n_c).astype(np.float64)
        self.topic_totals = np.bincount(
            doc_topic, weights=self._doc_word_lengths.astype(np.float64), minlength=n_z
        )
        self.n_unassigned = 0
        self._drop_caches()

    def random_init(self, rng: RngLike = None, fixed_communities: np.ndarray | None = None) -> None:
        """Uniformly random initial assignments (optionally with frozen C).

        The draws are the scalar ``integers`` calls of a per-document loop,
        community then topic (an array call reads the Generator
        differently), made in one C call (``cpd_draw_integers``) when the
        backend loads; the counts are then built at once by
        :meth:`load_assignments`. The state must be wholly unassigned.
        """
        if self.n_unassigned != self.n_docs:
            raise ValueError("random_init needs a wholly unassigned state")
        generator = ensure_rng(rng)
        n_communities, n_topics = self.n_communities, self.n_topics
        bounds = (n_topics,) if fixed_communities is not None else (n_communities, n_topics)
        draws = None
        if max(bounds) <= _compiled.MAX_BOUND:
            try:
                draws = _compiled.draw_integers(generator, bounds, self.n_docs)
            except _compiled.CompiledBackendUnavailable:
                pass
        if draws is None:
            draws = np.array(
                [[generator.integers(0, bound) for bound in bounds] for _ in range(self.n_docs)],
                dtype=np.int64,
            ).reshape(self.n_docs, len(bounds))
        communities = draws[:, 0] if fixed_communities is None else fixed_communities
        self.load_assignments(communities, draws[:, -1])

    # ------------------------------------------------------------ estimators

    def pi_hat(self) -> np.ndarray:
        """Smoothed memberships ``(n_u^c + rho) / (n_u + |C| rho)``, shape (U, C)."""
        return self.pi_hat_view().copy()

    def pi_hat_view(self) -> np.ndarray:
        """Cached ``pi_hat`` matrix, refreshed row-wise; treat as read-only."""
        denominator_offset = self.n_communities * self.rho
        if self._pi_cache is None:
            self._pi_cache = (self.user_community + self.rho) / (
                self.user_totals[:, None] + denominator_offset
            )
            self._pi_dirty.clear()
        elif self._pi_dirty:
            if len(self._pi_dirty) <= 8:  # the per-document steady state
                cache = self._pi_cache
                for row in self._pi_dirty:
                    cache[row] = (self.user_community[row] + self.rho) / (
                        self.user_totals[row] + denominator_offset
                    )
            else:
                rows = np.fromiter(self._pi_dirty, dtype=np.int64, count=len(self._pi_dirty))
                self._pi_cache[rows] = (self.user_community[rows] + self.rho) / (
                    self.user_totals[rows, None] + denominator_offset
                )
            self._pi_dirty.clear()
        return self._pi_cache

    def pi_hat_user(self, user: int) -> np.ndarray:
        """One user's smoothed membership vector."""
        return (self.user_community[user] + self.rho) / (
            self.user_totals[user] + self.n_communities * self.rho
        )

    def theta_hat(self) -> np.ndarray:
        """Smoothed content profiles ``(n_c^z + alpha) / (n_c + |Z| alpha)``, shape (C, Z)."""
        return self.theta_hat_view().copy()

    def theta_hat_view(self) -> np.ndarray:
        """Cached ``theta_hat`` matrix, refreshed row-wise; treat as read-only."""
        denominator_offset = self.n_topics * self.alpha
        if self._theta_cache is None:
            self._theta_cache = (self.community_topic + self.alpha) / (
                self.community_totals[:, None] + denominator_offset
            )
            self._theta_dirty.clear()
        elif self._theta_dirty:
            if len(self._theta_dirty) <= 8:  # the per-document steady state
                cache = self._theta_cache
                for row in self._theta_dirty:
                    cache[row] = (self.community_topic[row] + self.alpha) / (
                        self.community_totals[row] + denominator_offset
                    )
            else:
                rows = np.fromiter(
                    self._theta_dirty, dtype=np.int64, count=len(self._theta_dirty)
                )
                self._theta_cache[rows] = (self.community_topic[rows] + self.alpha) / (
                    self.community_totals[rows, None] + denominator_offset
                )
            self._theta_dirty.clear()
        return self._theta_cache

    def phi_hat(self) -> np.ndarray:
        """Smoothed topic-word distributions, shape (Z, W)."""
        return (self.topic_word + self.beta) / (
            self.topic_totals[:, None] + self.n_words * self.beta
        )

    def _drop_caches(self) -> None:
        self._pi_cache = None
        self._theta_cache = None
        self._pi_dirty.clear()
        self._theta_dirty.clear()

    # ---------------------------------------------------------------- checks

    def check_consistency(self) -> None:
        """Verify counters against assignments; raises on drift (test hook)."""
        user_community = np.zeros_like(self.user_community)
        community_topic = np.zeros_like(self.community_topic)
        topic_word = np.zeros_like(self.topic_word)
        for doc_id in range(self.n_docs):
            c = self.doc_community[doc_id]
            z = self.doc_topic[doc_id]
            if z == -1:
                continue
            user_community[self._doc_user[doc_id], c] += 1
            community_topic[c, z] += 1
            lo, hi = self._word_indptr[doc_id], self._word_indptr[doc_id + 1]
            np.add.at(topic_word[z], self._all_words[lo:hi], 1.0)
        if not (
            np.array_equal(user_community, self.user_community)
            and np.array_equal(community_topic, self.community_topic)
            and np.array_equal(topic_word, self.topic_word)
        ):
            raise AssertionError("count state drifted from assignments")
        if np.any(self.user_community < 0) or np.any(self.community_topic < 0):
            raise AssertionError("negative counts in state")
        if self.n_unassigned != int((self.doc_topic == -1).sum()):
            raise AssertionError("n_unassigned drifted from assignments")
        if self._pi_cache is not None:
            fresh_pi = (self.user_community + self.rho) / (
                self.user_totals[:, None] + self.n_communities * self.rho
            )
            if not np.allclose(self.pi_hat_view(), fresh_pi, rtol=1e-12, atol=1e-12):
                raise AssertionError("pi_hat cache drifted from counts")
        if self._theta_cache is not None:
            fresh_theta = (self.community_topic + self.alpha) / (
                self.community_totals[:, None] + self.n_topics * self.alpha
            )
            if not np.allclose(self.theta_hat_view(), fresh_theta, rtol=1e-12, atol=1e-12):
                raise AssertionError("theta_hat cache drifted from counts")
