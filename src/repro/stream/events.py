"""Typed stream events and replay adapters (the streaming event log).

Production traffic is a totally-ordered log of arrivals: a user publishes
a document, a document diffuses another. This module gives those arrivals
typed records — :class:`DocumentArrival` and :class:`LinkArrival` — and a
replay adapter that converts any :class:`~repro.graph.social_graph.SocialGraph`
(synthetic or ingested) into a *warm prefix* plus a timestamp-ordered event
stream, which is how the streaming pipeline is exercised without a live
firehose.

**Document-id contract.** Streamed documents receive dense ids in arrival
order, continuing the base graph's id space: the first streamed document is
``base_graph.n_documents``, the next one more, and so on. The replay
splitter assigns ids under exactly that contract, so link events can name
documents that have not arrived *yet at split time* but always have by the
time the link event is reached (link events are ordered after both of
their endpoints).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ..graph.documents import DiffusionLink, Document, User
from ..graph.social_graph import SocialGraph


@dataclass(frozen=True)
class DocumentArrival:
    """A new document published by a known user.

    ``words`` holds vocabulary ids encoded against the fitted vocabulary
    (out-of-vocabulary tokens are dropped at encode time, exactly like the
    fold-in path); ``timestamp`` is the integer time bucket of ``n_tz``.
    """

    user_id: int
    words: np.ndarray
    timestamp: int = 0

    def __post_init__(self) -> None:
        words = np.asarray(self.words, dtype=np.int64)
        object.__setattr__(self, "words", words)
        if words.ndim != 1:
            raise ValueError("words must be a one-dimensional id array")


@dataclass(frozen=True)
class LinkArrival:
    """A new diffusion link: ``source_doc`` diffuses ``target_doc``.

    Document ids follow the arrival-order contract of the module
    docstring; both endpoints must exist when the event is applied.
    """

    source_doc: int
    target_doc: int
    timestamp: int = 0

    def __post_init__(self) -> None:
        if self.source_doc == self.target_doc:
            raise ValueError("self-diffusion links are not allowed")


StreamEvent = Union[DocumentArrival, LinkArrival]


@dataclass
class ReplayPlan:
    """A graph split into a warm base plus a replayable event stream.

    ``full_graph`` is the same corpus re-indexed into replay order (base
    documents first, streamed documents in arrival order) — the comparator
    a cold batch refit runs on, so streamed and refit assignments align
    index-for-index.
    """

    base_graph: SocialGraph
    events: list[StreamEvent]
    full_graph: SocialGraph
    #: original doc id -> replay doc id
    doc_id_map: np.ndarray

    @property
    def n_base_documents(self) -> int:
        return self.base_graph.n_documents

    @property
    def n_document_events(self) -> int:
        return sum(1 for e in self.events if isinstance(e, DocumentArrival))

    @property
    def n_link_events(self) -> int:
        return sum(1 for e in self.events if isinstance(e, LinkArrival))


def _reindexed_graph(
    graph: SocialGraph,
    doc_order: np.ndarray,
    new_id: np.ndarray,
    n_docs: int,
    name: str,
) -> SocialGraph:
    """The subgraph over the first ``n_docs`` documents of ``doc_order``."""
    documents = []
    for position in range(n_docs):
        doc = graph.documents[int(doc_order[position])]
        documents.append(
            Document(
                doc_id=position,
                user_id=doc.user_id,
                words=doc.words,
                timestamp=doc.timestamp,
            )
        )
    users = [User(user_id=u.user_id, name=u.name) for u in graph.users]
    for doc in documents:
        users[doc.user_id].doc_ids.append(doc.doc_id)
    links = [
        DiffusionLink(int(new_id[l.source_doc]), int(new_id[l.target_doc]), l.timestamp)
        for l in graph.diffusion_links
        if new_id[l.source_doc] < n_docs and new_id[l.target_doc] < n_docs
    ]
    return SocialGraph(
        users=users,
        documents=documents,
        friendship_links=list(graph.friendship_links),
        diffusion_links=links,
        vocabulary=graph.vocabulary,
        name=name,
    )


def split_for_replay(graph: SocialGraph, warm_fraction: float = 0.5) -> ReplayPlan:
    """Split ``graph`` into a warm base graph plus a replayable stream.

    Documents are ordered by ``(timestamp, doc_id)``; the first
    ``warm_fraction`` of them (at least one) form the base graph an offline
    fit warms up on, the rest become :class:`DocumentArrival` events in
    order. Diffusion links with both endpoints in the base stay in the base
    graph; every other link becomes a :class:`LinkArrival` ordered after
    both of its endpoint documents. Friendship links are user-level and
    stay in the base (the user set is fixed; unseen *users* are a serving
    concern handled by fold-in's uniform prior, not by replay).
    """
    if not 0.0 < warm_fraction <= 1.0:
        raise ValueError("warm_fraction must lie in (0, 1]")
    n_docs = graph.n_documents
    if n_docs == 0:
        raise ValueError("cannot replay an empty graph")
    doc_order = np.lexsort((np.arange(n_docs), graph.doc_time))
    new_id = np.empty(n_docs, dtype=np.int64)
    new_id[doc_order] = np.arange(n_docs)
    n_base = min(n_docs, max(1, math.ceil(warm_fraction * n_docs)))

    base_graph = _reindexed_graph(
        graph, doc_order, new_id, n_base, name=f"{graph.name}-base"
    )
    full_graph = _reindexed_graph(
        graph, doc_order, new_id, n_docs, name=f"{graph.name}-replay"
    )

    # (sort key, tiebreak, event): documents first at equal timestamps so a
    # link never precedes an endpoint; stable sort keeps arrival order
    # consistent with the id contract
    keyed: list[tuple[int, int, int, StreamEvent]] = []
    for position in range(n_base, n_docs):
        doc = graph.documents[int(doc_order[position])]
        keyed.append(
            (doc.timestamp, 0, position, DocumentArrival(doc.user_id, doc.words, doc.timestamp))
        )
    for index, link in enumerate(graph.diffusion_links):
        src, tgt = int(new_id[link.source_doc]), int(new_id[link.target_doc])
        if src < n_base and tgt < n_base:
            continue
        effective = max(
            link.timestamp,
            int(graph.doc_time[link.source_doc]),
            int(graph.doc_time[link.target_doc]),
        )
        keyed.append((effective, 1, index, LinkArrival(src, tgt, link.timestamp)))
    keyed.sort(key=lambda item: item[:3])
    return ReplayPlan(
        base_graph=base_graph,
        events=[event for *_key, event in keyed],
        full_graph=full_graph,
        doc_id_map=new_id,
    )
