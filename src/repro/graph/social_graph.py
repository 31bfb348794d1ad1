"""The social graph ``G = (U, D, F, E)`` and its adjacency indexes.

This is the input object of the joint profiling-and-detection problem
(paper Definition 1 / Problem 1). Besides the raw users, documents,
friendship links and diffusion links it exposes the two neighbourhoods the
Gibbs sampler walks on every sweep:

* ``Lambda_u`` — user u's friendship neighbours in either direction
  (paper Eq. 13's :math:`\\Lambda_u`),
* ``Lambda_i`` — document i's diffusion neighbours in either direction
  (paper Eq. 13's :math:`\\Lambda_i`).

It also owns the corpus's per-document layout (see :class:`SocialGraph`),
which samplers, the negative sampler's index and the profile store read
instead of walking ``documents`` again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .documents import DiffusionLink, Document, FriendshipLink, User
from .vocabulary import Vocabulary


@dataclass(frozen=True)
class GraphStats:
    """The dataset statistics the paper reports in Table 3."""

    n_users: int
    n_friendship_links: int
    n_diffusion_links: int
    n_documents: int
    n_words: int


def counts_to_indptr(counts: np.ndarray) -> np.ndarray:
    """CSR index pointer from per-row entry counts."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def unique_word_csr(
    words: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-document sorted unique words and their multiplicities, as one CSR.

    ``words`` holds the documents' occurrences back to back, ``lengths[d]``
    of them for document ``d``. One stable sort by ``(document, word)``
    replaces a ``np.unique`` call per document. Returns ``(unique_words,
    counts, indptr)``: document ``d``'s unique words, ascending, are
    ``unique_words[indptr[d]:indptr[d + 1]]`` and their float64
    multiplicities sit at the same positions of ``counts``.
    """
    docs = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    ordered = words[np.lexsort((words, docs))]
    first = np.ones(ordered.shape[0], dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]) | (docs[1:] != docs[:-1])
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=ordered.shape[0]).astype(np.float64)
    indptr = counts_to_indptr(np.bincount(docs[starts], minlength=len(lengths)))
    return ordered[starts], counts, indptr


class SocialGraph:
    """Immutable-after-validation container for ``G = (U, D, F, E)``.

    Construction walks ``documents`` once into read-only per-document
    arrays, the corpus layout every sampler of the graph shares:

    * ``tokens``: every word occurrence, document after document; document
      ``d``'s ``doc_lengths[d]`` words are ``tokens[token_ptr[d]:token_ptr[d + 1]]``;
    * ``unique_words`` / ``unique_counts`` / ``unique_ptr``: each document's
      ascending distinct words and their float64 multiplicities, as the CSR
      of :func:`unique_word_csr`;
    * ``doc_user`` / ``doc_time``: each document's publishing user and time
      bucket.
    """

    def __init__(
        self,
        users: list[User],
        documents: list[Document],
        friendship_links: list[FriendshipLink],
        diffusion_links: list[DiffusionLink],
        vocabulary: Vocabulary,
        name: str = "social-graph",
    ) -> None:
        self.users = users
        self.documents = documents
        self.friendship_links = friendship_links
        self.diffusion_links = diffusion_links
        self.vocabulary = vocabulary
        self.name = name
        self._build_document_arrays()
        self._validate()
        self._build_indexes()

    # ------------------------------------------------------------------ setup

    def _build_document_arrays(self) -> None:
        documents = self.documents
        self.doc_user = np.asarray([doc.user_id for doc in documents], dtype=np.int64)
        self.doc_time = np.asarray([doc.timestamp for doc in documents], dtype=np.int64)
        self.doc_lengths = np.asarray([len(doc.words) for doc in documents], dtype=np.int64)
        self.token_ptr = counts_to_indptr(self.doc_lengths)
        self.tokens = np.concatenate(
            [doc.words for doc in documents] + [np.zeros(0, dtype=np.int64)]
        )
        self.unique_words, self.unique_counts, self.unique_ptr = unique_word_csr(
            self.tokens, self.doc_lengths
        )
        for array in (
            self.doc_user, self.doc_time, self.doc_lengths, self.token_ptr,
            self.tokens, self.unique_words, self.unique_counts, self.unique_ptr,
        ):
            array.flags.writeable = False

    def _validate(self) -> None:
        n_users = len(self.users)
        n_docs = len(self.documents)
        n_words = len(self.vocabulary)
        for index, user in enumerate(self.users):
            if user.user_id != index:
                raise ValueError(f"user ids must be dense; got {user.user_id} at {index}")
        for index, doc in enumerate(self.documents):
            if doc.doc_id != index:
                raise ValueError(f"document ids must be dense; got {doc.doc_id} at {index}")
        unknown = np.flatnonzero((self.doc_user < 0) | (self.doc_user >= n_users))
        if len(unknown):
            index = int(unknown[0])
            raise ValueError(f"document {index} has unknown user {self.doc_user[index]}")
        out_of_vocabulary = np.flatnonzero((self.tokens < 0) | (self.tokens >= n_words))
        if len(out_of_vocabulary):
            index = int(np.searchsorted(self.token_ptr, out_of_vocabulary[0], side="right")) - 1
            raise ValueError(f"document {index} has out-of-vocabulary word ids")
        for link in self.friendship_links:
            if not (0 <= link.source < n_users and 0 <= link.target < n_users):
                raise ValueError(f"friendship link {link} references unknown users")
        for link in self.diffusion_links:
            if not (0 <= link.source_doc < n_docs and 0 <= link.target_doc < n_docs):
                raise ValueError(f"diffusion link {link} references unknown documents")

    def _build_indexes(self) -> None:
        self._user_friends: list[list[int]] = [[] for _ in self.users]
        for link in self.friendship_links:
            self._user_friends[link.source].append(link.target)
            self._user_friends[link.target].append(link.source)
        # deduplicate: u<->v counted once in Lambda_u even if both directions exist
        self._user_friends = [sorted(set(friends)) for friends in self._user_friends]

        self._user_out_degree = np.zeros(len(self.users), dtype=np.int64)
        self._user_in_degree = np.zeros(len(self.users), dtype=np.int64)
        for link in self.friendship_links:
            self._user_out_degree[link.source] += 1
            self._user_in_degree[link.target] += 1

        self._user_diffusions_made = np.zeros(len(self.users), dtype=np.int64)
        self._user_diffusions_received = np.zeros(len(self.users), dtype=np.int64)
        for link in self.diffusion_links:
            self._user_diffusions_made[self.doc_user[link.source_doc]] += 1
            self._user_diffusions_received[self.doc_user[link.target_doc]] += 1

    # ------------------------------------------------------------ basic sizes

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_documents(self) -> int:
        return len(self.documents)

    @property
    def n_words(self) -> int:
        return len(self.vocabulary)

    @property
    def n_friendship_links(self) -> int:
        return len(self.friendship_links)

    @property
    def n_diffusion_links(self) -> int:
        return len(self.diffusion_links)

    def stats(self) -> GraphStats:
        """The Table 3 statistics row for this graph."""
        return GraphStats(
            n_users=self.n_users,
            n_friendship_links=self.n_friendship_links,
            n_diffusion_links=self.n_diffusion_links,
            n_documents=self.n_documents,
            n_words=self.n_words,
        )

    # ------------------------------------------------------------- traversal

    def documents_of(self, user_id: int) -> list[int]:
        """Ids of the documents published by ``user_id`` (the set ``D_u``)."""
        return self.users[user_id].doc_ids

    def friendship_neighbors(self, user_id: int) -> list[int]:
        """``Lambda_u``: users linked to ``user_id`` by F in either direction."""
        return self._user_friends[user_id]

    def friendship_pairs(self) -> set[tuple[int, int]]:
        """Directed (source, target) friendship pairs as a set (negative sampling)."""
        return {(link.source, link.target) for link in self.friendship_links}

    def diffusion_pairs(self) -> set[tuple[int, int]]:
        """Directed (source_doc, target_doc) diffusion pairs as a set."""
        return {(link.source_doc, link.target_doc) for link in self.diffusion_links}

    # ----------------------------------------------------------- user degrees

    def follower_count(self, user_id: int) -> int:
        """Number of friendship links pointing *to* the user."""
        return int(self._user_in_degree[user_id])

    def followee_count(self, user_id: int) -> int:
        """Number of friendship links pointing *from* the user."""
        return int(self._user_out_degree[user_id])

    def diffusions_made(self, user_id: int) -> int:
        """Diffusion links whose source document belongs to the user (retweets made)."""
        return int(self._user_diffusions_made[user_id])

    def diffusions_received(self, user_id: int) -> int:
        """Diffusion links whose target document belongs to the user (citations received)."""
        return int(self._user_diffusions_received[user_id])

    # ------------------------------------------------------------------ misc

    def timestamps(self) -> np.ndarray:
        """Sorted unique diffusion timestamps (the time buckets of ``n_tz``)."""
        if not self.diffusion_links:
            return np.asarray([], dtype=np.int64)
        return np.unique([link.timestamp for link in self.diffusion_links])

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"SocialGraph({self.name!r}: {s.n_users} users, {s.n_documents} docs, "
            f"{s.n_friendship_links} friendship links, {s.n_diffusion_links} diffusion links, "
            f"{s.n_words} words)"
        )
