"""Graph summary: everything serving needs from the graph, without the graph.

The offline fit walks the full ``G = (U, D, F, E)``; the serving read path
must not (ISSUE 2 / paper Sect. 1's "profile once, serve many"). This
module distils the graph into the statistics the applications actually
consume at query time:

* per-document ``user_id`` and time bucket (diffusion prediction),
* per-user degree counts feeding the individual-preference features
  ``f_uv`` (:class:`repro.diffusion.features.UserFeatures`),
* the Table 3 size statistics (reports),
* the query inverted index of Sect. 6.3.2 — each selected query term with
  its diffusing-document frequency and relevant user set ``U*_q``
  (:func:`repro.evaluation.queries.select_queries`).

A :class:`GraphSummary` is JSON-serialisable and rides inside the v2
``.cpd.npz`` artifact (:mod:`repro.core.io`), which is what makes those
artifacts self-contained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..evaluation.queries import Query, select_queries
from ..graph.social_graph import GraphStats, SocialGraph

#: query-selection defaults baked into saved summaries; liberal enough for
#: the laptop-scale synthetic corpora (DESIGN.md §2)
DEFAULT_QUERY_MIN_FREQUENCY = 2


@dataclass
class GraphSummary:
    """Serving-side distillate of one :class:`SocialGraph`."""

    name: str
    n_users: int
    n_documents: int
    n_words: int
    n_friendship_links: int
    n_diffusion_links: int
    #: publisher of each document, shape (D,)
    doc_user: np.ndarray
    #: time bucket of each document, shape (D,)
    doc_timestamp: np.ndarray
    #: per-user follower (in-degree) counts, shape (U,)
    followers: np.ndarray
    #: per-user followee (out-degree) counts, shape (U,)
    followees: np.ndarray
    #: per-user diffusion links made (source side), shape (U,)
    diffusions_made: np.ndarray
    #: per-user diffusion links received (target side), shape (U,)
    diffusions_received: np.ndarray
    #: per-user published document counts, shape (U,)
    docs_per_user: np.ndarray
    #: the precomputed query inverted index (term -> frequency + U*_q)
    queries: list[Query] = field(default_factory=list)

    # ------------------------------------------------------------ construction

    @classmethod
    def from_graph(
        cls,
        graph: SocialGraph,
        query_min_frequency: int = DEFAULT_QUERY_MIN_FREQUENCY,
        query_max_queries: int | None = None,
        query_hashtags_only: bool = False,
        query_remove_top_frequent: int = 0,
    ) -> "GraphSummary":
        """Distil ``graph`` (including its query inverted index)."""
        n_users = graph.n_users
        queries = select_queries(
            graph,
            min_frequency=query_min_frequency,
            hashtags_only=query_hashtags_only,
            remove_top_frequent=query_remove_top_frequent,
            max_queries=query_max_queries,
        )
        return cls(
            name=graph.name,
            n_users=n_users,
            n_documents=graph.n_documents,
            n_words=graph.n_words,
            n_friendship_links=graph.n_friendship_links,
            n_diffusion_links=graph.n_diffusion_links,
            doc_user=graph.doc_user,
            doc_timestamp=graph.doc_time,
            followers=np.asarray(
                [graph.follower_count(u) for u in range(n_users)], dtype=np.int64
            ),
            followees=np.asarray(
                [graph.followee_count(u) for u in range(n_users)], dtype=np.int64
            ),
            diffusions_made=np.asarray(
                [graph.diffusions_made(u) for u in range(n_users)], dtype=np.int64
            ),
            diffusions_received=np.asarray(
                [graph.diffusions_received(u) for u in range(n_users)], dtype=np.int64
            ),
            docs_per_user=np.asarray(
                [len(graph.documents_of(u)) for u in range(n_users)], dtype=np.int64
            ),
            queries=queries,
        )

    # ------------------------------------------------------------- conversion

    def stats(self) -> GraphStats:
        """The Table 3 statistics row (mirrors :meth:`SocialGraph.stats`)."""
        return GraphStats(
            n_users=self.n_users,
            n_friendship_links=self.n_friendship_links,
            n_diffusion_links=self.n_diffusion_links,
            n_documents=self.n_documents,
            n_words=self.n_words,
        )

    def to_dict(self) -> dict:
        """JSON-serialisable form (paired with :meth:`from_dict`)."""
        return {
            "name": self.name,
            "n_users": self.n_users,
            "n_documents": self.n_documents,
            "n_words": self.n_words,
            "n_friendship_links": self.n_friendship_links,
            "n_diffusion_links": self.n_diffusion_links,
            "doc_user": self.doc_user.tolist(),
            "doc_timestamp": self.doc_timestamp.tolist(),
            "followers": self.followers.tolist(),
            "followees": self.followees.tolist(),
            "diffusions_made": self.diffusions_made.tolist(),
            "diffusions_received": self.diffusions_received.tolist(),
            "docs_per_user": self.docs_per_user.tolist(),
            "queries": [
                {
                    "term": query.term,
                    "word_id": query.word_id,
                    "frequency": query.frequency,
                    "relevant_users": query.relevant_users.tolist(),
                }
                for query in self.queries
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GraphSummary":
        """Rebuild a summary serialised by :meth:`to_dict`."""
        return cls(
            name=payload["name"],
            n_users=int(payload["n_users"]),
            n_documents=int(payload["n_documents"]),
            n_words=int(payload["n_words"]),
            n_friendship_links=int(payload["n_friendship_links"]),
            n_diffusion_links=int(payload["n_diffusion_links"]),
            doc_user=np.asarray(payload["doc_user"], dtype=np.int64),
            doc_timestamp=np.asarray(payload["doc_timestamp"], dtype=np.int64),
            followers=np.asarray(payload["followers"], dtype=np.int64),
            followees=np.asarray(payload["followees"], dtype=np.int64),
            diffusions_made=np.asarray(payload["diffusions_made"], dtype=np.int64),
            diffusions_received=np.asarray(
                payload["diffusions_received"], dtype=np.int64
            ),
            docs_per_user=np.asarray(payload["docs_per_user"], dtype=np.int64),
            queries=[
                Query(
                    term=record["term"],
                    word_id=int(record["word_id"]),
                    frequency=int(record["frequency"]),
                    relevant_users=np.asarray(
                        record["relevant_users"], dtype=np.int64
                    ),
                )
                for record in payload.get("queries", [])
            ],
        )
