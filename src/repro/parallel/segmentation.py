"""Topic-driven data segmentation for the parallel E-step (paper Sect. 4.3).

The paper's two guidelines: (1) a user's documents stay in one segment so
threads do not fight over the same user's counters; (2) same-topic
documents should share a segment to reduce conflicting topic-counter
updates. Implementation exactly as described: run LDA with ``|Z|`` topics
over all documents, then put each user into the segment of her most
frequently assigned topic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.social_graph import SocialGraph
from ..sampling.rng import RngLike, ensure_rng
from ..topics.lda import LDA, LDAConfig


@dataclass
class DataSegment:
    """One unit of parallel work: a user set with everything attached to it."""

    segment_id: int
    users: np.ndarray
    doc_ids: np.ndarray
    n_friendship_links: int = 0
    n_diffusion_links: int = 0

    @property
    def n_users(self) -> int:
        return int(self.users.shape[0])

    @property
    def n_documents(self) -> int:
        return int(self.doc_ids.shape[0])


def segment_users_by_topic(
    graph: SocialGraph,
    n_segments: int,
    lda_iterations: int = 20,
    rng: RngLike = None,
) -> list[DataSegment]:
    """Partition users into ``n_segments`` by dominant LDA topic.

    Segments can be empty when a topic dominates no user — they are dropped,
    matching the knapsack allocator's expectation of positive workloads.
    """
    if n_segments < 1:
        raise ValueError("need at least one segment")
    generator = ensure_rng(rng)
    lda = LDA(
        LDAConfig(n_topics=n_segments, n_iterations=lda_iterations), rng=generator
    )
    lda.fit([doc.words for doc in graph.documents], max(graph.n_words, 1))
    user_segment = lda.dominant_topic_per_user(graph.doc_user, graph.n_users)
    return build_segments(graph, user_segment)


def build_segments(graph: SocialGraph, user_segment: np.ndarray) -> list[DataSegment]:
    """Materialise :class:`DataSegment` objects from a user->segment map."""
    user_segment = np.asarray(user_segment, dtype=np.int64)
    if user_segment.shape != (graph.n_users,):
        raise ValueError("user_segment must have one entry per user")
    segment_ids, user_index = np.unique(user_segment, return_inverse=True)
    n_segments = len(segment_ids)
    doc_index = user_index[graph.doc_user]
    friend_ends = np.array(
        [(link.source, link.target) for link in graph.friendship_links], dtype=np.int64
    ).reshape(-1, 2)
    diffusion_ends = np.array(
        [(link.source_doc, link.target_doc) for link in graph.diffusion_links],
        dtype=np.int64,
    ).reshape(-1, 2)
    n_friend = _incident_links(user_index[friend_ends], n_segments)
    n_diff = _incident_links(doc_index[diffusion_ends], n_segments)
    return [
        DataSegment(
            segment_id=int(segment_id),
            users=np.flatnonzero(user_index == index),
            doc_ids=np.flatnonzero(doc_index == index),
            n_friendship_links=int(n_friend[index]),
            n_diffusion_links=int(n_diff[index]),
        )
        for index, segment_id in enumerate(segment_ids)
    ]


def _incident_links(endpoint_segments: np.ndarray, n_segments: int) -> np.ndarray:
    """Per segment, the links with at least one endpoint in it.

    Each link adds one to both endpoints' segments; a link inside one
    segment is then subtracted once so it counts once.
    """
    source, target = endpoint_segments[:, 0], endpoint_segments[:, 1]
    return (
        np.bincount(source, minlength=n_segments)
        + np.bincount(target, minlength=n_segments)
        - np.bincount(source[source == target], minlength=n_segments)
    )
