"""Graph partitioning: split one ``SocialGraph`` into user-disjoint shards.

Horizontal scaling starts here (ROADMAP: "millions of users"). Leskovec et
al.'s observation that large social networks decompose into many small,
weakly-coupled communities is exactly the structure a partitioner can
exploit: if each shard holds whole communities, almost every friendship
and diffusion link stays shard-internal, per-shard CPD fits see nearly the
same neighbourhoods the monolithic fit would, and cross-shard alignment
(:mod:`repro.shard.align`) has clean profiles to match.

Two strategies:

* ``"hash"`` — users are spread by a multiplicative hash of their id.
  Strategy-agnostic and perfectly balanced in expectation, but blind to
  community structure, so it maximises the spill set; it is the baseline
  the community-aware strategy is measured against.
* ``"community"`` — reuses the parallel engine's topic-driven segmentation
  (paper Sect. 4.3, :func:`repro.parallel.segmentation.segment_users_by_topic`):
  users are grouped by dominant LDA topic into
  :class:`~repro.parallel.segmentation.DataSegment` units, which are then
  packed onto shards largest-first (LPT) so shards stay balanced while
  same-community users stay together.

Every link whose endpoints land on different shards cannot live in either
shard's subgraph — those links go into the :class:`SpillSet` (global ids),
preserved verbatim in the shard manifest so no edge is silently dropped:
the aligner and future cross-shard refreshes can consult them, and the
partition quality report (`spill fraction`) is computed from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.documents import DiffusionLink, Document, FriendshipLink, User
from ..graph.social_graph import SocialGraph
from ..parallel.segmentation import DataSegment, segment_users_by_topic
from ..sampling.rng import RngLike, ensure_rng

STRATEGIES = ("hash", "community")

#: Knuth's multiplicative hash constant — spreads consecutive user ids
#: (which correlate with planted communities in the synthetic scenarios)
_HASH_MIX = 2654435761


@dataclass(frozen=True)
class SpillSet:
    """Cross-shard links that no shard's subgraph can hold (global ids)."""

    #: friendship links (source_user, target_user), shape (Lf, 2)
    friendship: np.ndarray
    #: diffusion links (source_doc, target_doc, timestamp), shape (Ld, 3)
    diffusion: np.ndarray

    @property
    def n_friendship(self) -> int:
        return int(self.friendship.shape[0])

    @property
    def n_diffusion(self) -> int:
        return int(self.diffusion.shape[0])

    def to_dict(self) -> dict:
        return {
            "friendship": self.friendship.tolist(),
            "diffusion": self.diffusion.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpillSet":
        return cls(
            friendship=np.asarray(payload.get("friendship", []), dtype=np.int64).reshape(-1, 2),
            diffusion=np.asarray(payload.get("diffusion", []), dtype=np.int64).reshape(-1, 3),
        )


@dataclass
class ShardPart:
    """One shard: a user-disjoint subgraph plus its global/local id maps."""

    shard_id: int
    #: global user ids, sorted; position = local user id
    users: np.ndarray
    #: global doc ids, sorted; position = local doc id
    doc_ids: np.ndarray
    #: the re-densified subgraph (shares the *global* vocabulary, so word
    #: ids — and therefore phi columns and query terms — align across shards)
    graph: SocialGraph

    @property
    def n_users(self) -> int:
        return int(self.users.shape[0])

    @property
    def n_documents(self) -> int:
        return int(self.doc_ids.shape[0])


@dataclass
class ShardPlan:
    """The output of one partitioning run."""

    strategy: str
    n_shards: int
    graph_name: str
    #: global user id -> shard id, shape (U,)
    user_shard: np.ndarray
    shards: list[ShardPart]
    spill: SpillSet
    #: the topic segments behind a "community" partition (empty for "hash")
    segments: list[DataSegment] = field(default_factory=list)

    @property
    def n_users(self) -> int:
        return int(self.user_shard.shape[0])

    def shard_of_user(self, global_user: int) -> int:
        return int(self.user_shard[global_user])

    def spill_fraction(self) -> float:
        """Share of all links that crossed shards (partition quality)."""
        total = sum(
            part.graph.n_friendship_links + part.graph.n_diffusion_links
            for part in self.shards
        ) + self.spill.n_friendship + self.spill.n_diffusion
        if total == 0:
            return 0.0
        return (self.spill.n_friendship + self.spill.n_diffusion) / total


class GraphPartitioner:
    """Splits a :class:`SocialGraph` into user-disjoint shard subgraphs."""

    def __init__(
        self,
        strategy: str = "community",
        lda_iterations: int = 20,
        rng: RngLike = None,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
        self.strategy = strategy
        self.lda_iterations = lda_iterations
        self.rng = ensure_rng(rng)

    # ------------------------------------------------------------- strategies

    def _hash_assignment(self, graph: SocialGraph, n_shards: int) -> np.ndarray:
        users = np.arange(graph.n_users, dtype=np.uint64)
        return ((users * _HASH_MIX) % (1 << 32) % n_shards).astype(np.int64)

    def _community_assignment(
        self, graph: SocialGraph, n_shards: int
    ) -> tuple[np.ndarray, list[DataSegment]]:
        """Pack topic segments onto shards largest-first (LPT balancing).

        Two segments per shard: finer segments pack into better-balanced
        shards without splitting a segment's users.
        """
        n_segments = min(graph.n_users, 2 * n_shards)
        segments = segment_users_by_topic(
            graph, n_segments, lda_iterations=self.lda_iterations, rng=self.rng
        )
        order = sorted(segments, key=lambda s: -s.n_documents)
        loads = np.zeros(n_shards, dtype=np.int64)
        user_shard = np.zeros(graph.n_users, dtype=np.int64)
        for segment in order:
            target = int(np.argmin(loads))
            user_shard[segment.users] = target
            loads[target] += max(segment.n_documents, 1)
        return user_shard, segments

    @staticmethod
    def _fill_empty_shards(user_shard: np.ndarray, n_shards: int) -> np.ndarray:
        """Every shard must own at least one user (fits need non-empty graphs)."""
        for shard in range(n_shards):
            if not (user_shard == shard).any():
                counts = np.bincount(user_shard, minlength=n_shards)
                donor = int(np.argmax(counts))
                movable = np.flatnonzero(user_shard == donor)
                user_shard[movable[: max(1, len(movable) // 2)]] = shard
        return user_shard

    # ------------------------------------------------------------ public API

    def partition(self, graph: SocialGraph, n_shards: int) -> ShardPlan:
        """Split ``graph`` into ``n_shards`` user-disjoint shards."""
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if n_shards > graph.n_users:
            raise ValueError(
                f"cannot cut {graph.n_users} users into {n_shards} non-empty shards"
            )
        segments: list[DataSegment] = []
        if n_shards == 1:
            user_shard = np.zeros(graph.n_users, dtype=np.int64)
        elif self.strategy == "hash":
            user_shard = self._hash_assignment(graph, n_shards)
        else:
            user_shard, segments = self._community_assignment(graph, n_shards)
        user_shard = self._fill_empty_shards(user_shard, n_shards)
        return build_plan(graph, user_shard, self.strategy, segments=segments)


def build_plan(
    graph: SocialGraph,
    user_shard: np.ndarray,
    strategy: str = "custom",
    segments: list[DataSegment] | None = None,
) -> ShardPlan:
    """Materialise a :class:`ShardPlan` from an explicit user->shard map.

    Link bucketing is one vectorized pass: the raw link lists are read
    exactly once into endpoint arrays, endpoint shards come from the
    ``user_shard``/``doc_shard`` gathers, and each shard (plus the spill
    set) slices its own bucket — no per-shard rescans of the full lists.
    """
    user_shard = np.asarray(user_shard, dtype=np.int64)
    if user_shard.shape != (graph.n_users,):
        raise ValueError("user_shard must have one entry per user")
    n_shards = int(user_shard.max()) + 1 if user_shard.size else 1

    doc_user = graph.doc_user
    doc_shard = user_shard[doc_user]

    # global -> local maps as dense arrays for the link remapping below
    local_user_of = np.full(graph.n_users, -1, dtype=np.int64)
    local_doc_of = np.full(graph.n_documents, -1, dtype=np.int64)
    shard_users: list[np.ndarray] = []
    shard_docs: list[np.ndarray] = []
    for shard_id in range(n_shards):
        users = np.flatnonzero(user_shard == shard_id)
        doc_ids = np.flatnonzero(doc_shard == shard_id)
        local_user_of[users] = np.arange(len(users))
        local_doc_of[doc_ids] = np.arange(len(doc_ids))
        shard_users.append(users)
        shard_docs.append(doc_ids)

    f_links = np.asarray(
        [(link.source, link.target) for link in graph.friendship_links],
        dtype=np.int64,
    ).reshape(-1, 2)
    e_links = np.asarray(
        [
            (link.source_doc, link.target_doc, link.timestamp)
            for link in graph.diffusion_links
        ],
        dtype=np.int64,
    ).reshape(-1, 3)
    f_shard = user_shard[f_links[:, 0]]
    f_same = f_shard == user_shard[f_links[:, 1]]
    e_shard = doc_shard[e_links[:, 0]]
    e_same = e_shard == doc_shard[e_links[:, 1]]

    shards = [
        _build_part(
            graph,
            shard_id,
            shard_users[shard_id],
            shard_docs[shard_id],
            local_user_of,
            local_doc_of,
            f_links[f_same & (f_shard == shard_id)],
            e_links[e_same & (e_shard == shard_id)],
        )
        for shard_id in range(n_shards)
    ]
    spill = SpillSet(friendship=f_links[~f_same], diffusion=e_links[~e_same])
    return ShardPlan(
        strategy=strategy,
        n_shards=n_shards,
        graph_name=graph.name,
        user_shard=user_shard,
        shards=shards,
        spill=spill,
        segments=list(segments or []),
    )


def _build_part(
    graph: SocialGraph,
    shard_id: int,
    users: np.ndarray,
    doc_ids: np.ndarray,
    local_user_of: np.ndarray,
    local_doc_of: np.ndarray,
    f_links: np.ndarray,
    e_links: np.ndarray,
) -> ShardPart:
    """Re-densify one shard's users/documents/links into a valid subgraph.

    The subgraph keeps the *global* vocabulary object: word ids stay
    comparable across shards (phi columns align, query terms resolve
    identically everywhere), which is what makes profile-similarity
    alignment and scatter-gather querying possible at all.
    ``f_links``/``e_links`` are this shard's pre-bucketed link rows
    (global ids).
    """
    shard_users = [
        User(user_id=int(local_user_of[g]), name=graph.users[g].name, doc_ids=[])
        for g in users
    ]
    shard_docs: list[Document] = []
    for g in doc_ids:
        doc = graph.documents[int(g)]
        local_id = int(local_doc_of[g])
        owner = int(local_user_of[doc.user_id])
        shard_docs.append(
            Document(
                doc_id=local_id,
                user_id=owner,
                words=doc.words,
                timestamp=doc.timestamp,
            )
        )
        shard_users[owner].doc_ids.append(local_id)
    friendship = [
        FriendshipLink(int(source), int(target))
        for source, target in zip(local_user_of[f_links[:, 0]], local_user_of[f_links[:, 1]])
    ]
    diffusion = [
        DiffusionLink(int(source), int(target), int(timestamp))
        for source, target, timestamp in zip(
            local_doc_of[e_links[:, 0]], local_doc_of[e_links[:, 1]], e_links[:, 2]
        )
    ]
    subgraph = SocialGraph(
        users=shard_users,
        documents=shard_docs,
        friendship_links=friendship,
        diffusion_links=diffusion,
        vocabulary=graph.vocabulary,
        name=f"{graph.name}/shard{shard_id}",
    )
    return ShardPart(shard_id=shard_id, users=users, doc_ids=doc_ids, graph=subgraph)
