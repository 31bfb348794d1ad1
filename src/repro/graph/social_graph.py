"""The social graph ``G = (U, D, F, E)`` and its adjacency indexes.

This is the input object of the joint profiling-and-detection problem
(paper Definition 1 / Problem 1). Besides the raw users, documents,
friendship links and diffusion links it exposes the two neighbourhoods the
Gibbs sampler walks on every sweep:

* ``Lambda_u`` — user u's friendship neighbours in either direction
  (paper Eq. 13's :math:`\\Lambda_u`),
* ``Lambda_i`` — document i's diffusion neighbours in either direction
  (paper Eq. 13's :math:`\\Lambda_i`).
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

    def as_row(self) -> tuple[int, int, int, int, int]:
        """The Table 3 row ordering: #(user), #(friend.), #(diff.), #(doc.), #(word)."""
        return (
            self.n_users,
            self.n_friendship_links,
            self.n_diffusion_links,
            self.n_documents,
            self.n_words,
        )


class SocialGraph:
    """Immutable-after-validation container for ``G = (U, D, F, E)``."""

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
        self._validate()
        self._build_indexes()

    # ------------------------------------------------------------------ setup

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
            if not 0 <= doc.user_id < n_users:
                raise ValueError(f"document {index} has unknown user {doc.user_id}")
            if len(doc.words) and (doc.words.min() < 0 or doc.words.max() >= n_words):
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
            self._user_diffusions_made[self.documents[link.source_doc].user_id] += 1
            self._user_diffusions_received[self.documents[link.target_doc].user_id] += 1

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

    def document_user_array(self) -> np.ndarray:
        """``doc_id -> user_id`` as a dense array."""
        return np.asarray([doc.user_id for doc in self.documents], dtype=np.int64)

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"SocialGraph({self.name!r}: {s.n_users} users, {s.n_documents} docs, "
            f"{s.n_friendship_links} friendship links, {s.n_diffusion_links} diffusion links, "
            f"{s.n_words} words)"
        )
