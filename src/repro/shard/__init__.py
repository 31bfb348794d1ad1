"""Sharding: partitioned fit, cross-shard alignment, scatter-gather serving.

The horizontal-scale layer (ROADMAP: "millions of users"). One monolithic
process owning one model and one artifact caps every other subsystem;
real social networks decompose into many small, weakly-coupled
communities (Leskovec et al. 2008), so a community-aware partitioner can
split the graph into user-disjoint shards whose fits barely interact:

* :class:`GraphPartitioner` — hash or community-aware user partitioning,
  cross-shard links preserved in a :class:`SpillSet`;
* :func:`fit_shards` — independent per-shard CPD fits, each saved as a
  standard self-contained artifact, indexed by a shard manifest
  (:mod:`repro.core.io`);
* :class:`CommunityAligner` — matches per-shard community ids into one
  global label space by profile similarity (Hungarian/greedy);
* :class:`ShardRouter` — the scatter-gather serving facade mirroring
  :class:`repro.serving.ProfileStore`'s query API, with an exact heap
  k-way merge of per-shard Eq. 19 rankings; one shard's store can be
  hot-swapped (:meth:`ShardRouter.hot_swap_shard`) while the others serve.
"""

from .align import (
    CommunityAligner,
    ShardAlignment,
    aligned_user_labels,
    community_signatures,
    hellinger_affinity,
)
from .fit import ShardedFit, fit_shards
from .partition import (
    GraphPartitioner,
    ShardPart,
    ShardPlan,
    SpillSet,
    build_plan,
)
from .health import CircuitBreaker
from .router import DegradedError, GatherResult, ShardRouter, build_manifest

__all__ = [
    "CircuitBreaker",
    "CommunityAligner",
    "DegradedError",
    "GatherResult",
    "GraphPartitioner",
    "ShardAlignment",
    "ShardPart",
    "ShardPlan",
    "ShardRouter",
    "ShardedFit",
    "SpillSet",
    "aligned_user_labels",
    "build_manifest",
    "build_plan",
    "community_signatures",
    "fit_shards",
    "hellinger_affinity",
]
