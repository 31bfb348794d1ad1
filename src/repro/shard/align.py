"""Cross-shard community alignment: one global label space for all shards.

Each shard fits its own CPD model, so "community 2" means something
different on every shard. Serving needs one label space: the aligner
matches communities across shards by *profile similarity* — exactly the
quantities the paper says characterise a community (its content profile
``theta_c`` and its diffusion profile ``eta_c``), pushed down to word
space through the shared ``phi`` so the comparison is meaningful across
independently-fitted models:

* **content signature** — ``theta_c @ phi``: the community's distribution
  over the (global, shared) vocabulary, i.e. its top-word profile;
* **diffusion signature** — ``(sum_c' eta[c, c', :]) @ phi`` normalised:
  on which words the community's outgoing diffusion concentrates.

Signatures are compared by the Hellinger affinity
``sum_w sqrt(p_w * q_w)`` (1 for identical distributions, 0 for disjoint
support) — bounded, symmetric, and well-defined for sparse profiles.

Matching is agglomerative over shards: shard 0's communities seed the
global space; each further shard is matched against the *current* global
signatures by an exact maximum-similarity assignment (``"hungarian"``, a
numpy Kuhn-Munkres in :func:`_hungarian`) or, when asked for, greedy
best-pair-first (``"greedy"``). Pairs below ``min_similarity`` are
rejected — those communities open fresh global labels instead of
polluting an existing one, so the global space can grow beyond the
per-shard ``C`` when shards genuinely hold different communities.
Matched signatures are merged as user-mass-weighted averages, keeping the
anchors stable as more shards join.

Alignment quality is pinned by test against :mod:`repro.evaluation.nmi`:
aligned global user labels on the synthetic scenarios must reach NMI ≥ 0.7
versus a monolithic fit's hard labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.result import CPDResult

METHODS = ("hungarian", "greedy")
FEATURES = ("content", "diffusion")


@dataclass
class ShardAlignment:
    """The fitted mapping of shard-local community ids to global labels."""

    #: per shard: local community id -> global label, shape (C_s,)
    local_to_global: list[np.ndarray]
    #: number of distinct global labels
    n_global: int
    #: global signature matrix, shape (n_global, W) — rows are distributions
    signatures: np.ndarray
    #: user mass backing each global label (sum of matched pi columns)
    mass: np.ndarray
    method: str = "hungarian"
    feature: str = "content"
    min_similarity: float = 0.0

    @property
    def n_shards(self) -> int:
        return len(self.local_to_global)

    def map_communities(self, shard_id: int, communities: np.ndarray) -> np.ndarray:
        """Vector-map shard-local community ids to global labels."""
        return self.local_to_global[shard_id][np.asarray(communities, dtype=np.int64)]

    def rebuild_signatures(self, results: list[CPDResult]) -> None:
        """Recompute the global signatures from the shard results in place.

        The manifest persists only the id mapping (signatures are derived
        data); this replays the merge. Because the online merge keeps
        mass-weighted running means, the batch recomputation — one
        mass-weighted average per global label over all of its backings —
        yields the same signatures up to floating-point association order.
        """
        if len(results) != self.n_shards:
            raise ValueError("one result per aligned shard required")
        n_words = results[0].n_words
        signatures = np.zeros((self.n_global, n_words), dtype=np.float64)
        mass = np.zeros(self.n_global, dtype=np.float64)
        for shard_id, result in enumerate(results):
            shard_sig = community_signatures(result, self.feature)
            shard_mass = result.pi.sum(axis=0).astype(np.float64)
            mapping = self.local_to_global[shard_id]
            for local in range(mapping.shape[0]):
                g = int(mapping[local])
                signatures[g] += shard_mass[local] * shard_sig[local]
                mass[g] += shard_mass[local]
        nonzero = mass > 0
        signatures[nonzero] /= mass[nonzero, None]
        self.signatures = signatures
        self.mass = mass

    def to_dict(self) -> dict:
        """JSON form for the shard manifest.

        Signatures and masses stay out: both are derived data that every
        revival path recomputes from the shard artifacts anyway
        (:meth:`rebuild_signatures`), so persisting them would only bloat
        the manifest and suggest they are load-bearing.
        """
        return {
            "n_global": self.n_global,
            "local_to_global": [m.tolist() for m in self.local_to_global],
            "method": self.method,
            "feature": self.feature,
            "min_similarity": self.min_similarity,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardAlignment":
        n_global = int(payload["n_global"])
        return cls(
            local_to_global=[
                np.asarray(m, dtype=np.int64) for m in payload["local_to_global"]
            ],
            n_global=n_global,
            signatures=np.zeros((n_global, 0)),
            mass=np.zeros(n_global, dtype=np.float64),
            method=payload.get("method", "hungarian"),
            feature=payload.get("feature", "content"),
            min_similarity=float(payload.get("min_similarity", 0.0)),
        )


def community_signatures(result: CPDResult, feature: str = "content") -> np.ndarray:
    """Per-community word distributions, shape ``(C, W)`` (see module doc)."""
    if feature not in FEATURES:
        raise ValueError(f"unknown feature {feature!r}; choose from {FEATURES}")
    if feature == "content":
        profile = result.theta  # (C, Z), rows already sum to 1
    else:
        outgoing = result.eta.sum(axis=1)  # (C, Z): total outgoing diffusion per topic
        totals = outgoing.sum(axis=1, keepdims=True)
        # communities that never diffuse fall back to their content profile
        profile = np.where(totals > 0, outgoing / np.maximum(totals, 1e-300), result.theta)
    signatures = profile @ result.phi  # (C, W)
    sums = signatures.sum(axis=1, keepdims=True)
    return signatures / np.maximum(sums, 1e-300)


def hellinger_affinity(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pairwise ``sum_w sqrt(p_w q_w)`` between row distributions.

    ``p`` is ``(A, W)``, ``q`` is ``(B, W)``; returns ``(A, B)`` in [0, 1].
    """
    return np.sqrt(np.maximum(p, 0.0)) @ np.sqrt(np.maximum(q, 0.0)).T


def _hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost assignment of every row of ``cost`` (``n <= m`` columns).

    Kuhn-Munkres by shortest augmenting paths with row/column potentials,
    O(n^2 m): each row is added by a Dijkstra-like search over the columns
    on reduced costs, then the alternating path to the first free column
    is flipped. Returns the column of each row, shape ``(n,)``.
    """
    n, m = cost.shape
    # index 0 is a virtual column/row that roots each search
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    owner = np.zeros(m + 1, dtype=np.int64)  # row (1-based) holding a column
    way = np.zeros(m + 1, dtype=np.int64)  # previous column on the path
    for row in range(1, n + 1):
        owner[0] = row
        column = 0
        reach = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[column] = True
            reduced = cost[owner[column] - 1] - u[owner[column]] - v[1:]
            closer = ~used[1:] & (reduced < reach[1:])
            reach[1:][closer] = reduced[closer]
            way[1:][closer] = column
            candidates = np.where(used[1:], np.inf, reach[1:])
            nearest = int(np.argmin(candidates)) + 1
            delta = candidates[nearest - 1]
            u[owner[used]] += delta
            v[used] -= delta
            reach[~used] -= delta
            column = nearest
            if owner[column] == 0:
                break
        while column:  # flip the augmenting path
            previous = way[column]
            owner[column] = owner[previous]
            column = previous
    assignment = np.empty(n, dtype=np.int64)
    matched = np.flatnonzero(owner[1:])
    assignment[owner[1:][matched] - 1] = matched
    return assignment


def _assign(similarity: np.ndarray, method: str) -> list[tuple[int, int]]:
    """Match rows to columns maximising similarity; returns (row, col) pairs."""
    if method == "hungarian":
        if not np.isfinite(similarity).all():
            raise ValueError("similarities must be finite")
        if similarity.shape[0] <= similarity.shape[1]:
            return list(enumerate(_hungarian(-similarity).tolist()))
        rows = _hungarian(-similarity.T)
        return sorted((row, col) for col, row in enumerate(rows.tolist()))
    # greedy best-pair-first
    pairs: list[tuple[int, int]] = []
    sim = similarity.copy()
    n = min(sim.shape)
    for _ in range(n):
        row, col = np.unravel_index(int(np.argmax(sim)), sim.shape)
        pairs.append((int(row), int(col)))
        sim[row, :] = -np.inf
        sim[:, col] = -np.inf
    return pairs


class CommunityAligner:
    """Matches per-shard community ids into one global label space."""

    def __init__(
        self,
        method: str = "hungarian",
        feature: str = "content",
        min_similarity: float = 0.35,
    ) -> None:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
        if feature not in FEATURES:
            raise ValueError(f"unknown feature {feature!r}; choose from {FEATURES}")
        if not 0.0 <= min_similarity <= 1.0:
            raise ValueError("min_similarity must be in [0, 1]")
        self.method = method
        self.feature = feature
        self.min_similarity = min_similarity

    def align(self, results: list[CPDResult]) -> ShardAlignment:
        """Build the global label space over per-shard fitted results."""
        if not results:
            raise ValueError("need at least one shard result to align")
        n_words = results[0].n_words
        for result in results[1:]:
            if result.n_words != n_words:
                raise ValueError(
                    "shard results disagree on vocabulary size — shards must "
                    "share the global vocabulary to be alignable"
                )

        first = results[0]
        signatures = community_signatures(first, self.feature)
        mass = first.pi.sum(axis=0).astype(np.float64)
        local_to_global = [np.arange(first.n_communities, dtype=np.int64)]

        for result in results[1:]:
            shard_sig = community_signatures(result, self.feature)
            shard_mass = result.pi.sum(axis=0).astype(np.float64)
            similarity = hellinger_affinity(shard_sig, signatures)
            mapping = np.full(result.n_communities, -1, dtype=np.int64)
            for local, global_label in _assign(similarity, self.method):
                if similarity[local, global_label] >= self.min_similarity:
                    mapping[local] = global_label
            # merge matched signatures as mass-weighted averages
            for local in np.flatnonzero(mapping >= 0):
                g = int(mapping[local])
                total = mass[g] + shard_mass[local]
                if total > 0:
                    signatures[g] = (
                        mass[g] * signatures[g] + shard_mass[local] * shard_sig[local]
                    ) / total
                mass[g] += shard_mass[local]
            # unmatched (or below-threshold) communities open fresh labels
            for local in np.flatnonzero(mapping < 0):
                mapping[local] = signatures.shape[0]
                signatures = np.vstack([signatures, shard_sig[local][None, :]])
                mass = np.append(mass, shard_mass[local])
            local_to_global.append(mapping)

        return ShardAlignment(
            local_to_global=local_to_global,
            n_global=signatures.shape[0],
            signatures=signatures,
            mass=mass,
            method=self.method,
            feature=self.feature,
            min_similarity=self.min_similarity,
        )

    def map_result(
        self, alignment: ShardAlignment, result: CPDResult
    ) -> np.ndarray:
        """Map an *external* fit's communities onto a frozen global space.

        Used to compare a monolithic fit against a sharded one: each of the
        external result's communities is assigned its best-matching global
        label (no new labels are opened, no signatures move). Requires the
        alignment to still carry its signatures (i.e. built by
        :meth:`align`, not revived from a manifest).
        """
        if alignment.signatures.size == 0:
            raise ValueError(
                "this alignment was revived without signatures; rebuild it "
                "with CommunityAligner.align over the shard results"
            )
        signatures = community_signatures(result, self.feature)
        similarity = hellinger_affinity(signatures, alignment.signatures)
        mapping = np.full(result.n_communities, -1, dtype=np.int64)
        for local, global_label in _assign(similarity, self.method):
            mapping[local] = global_label
        # more communities than global labels: fall back to best available
        unmatched = np.flatnonzero(mapping < 0)
        if unmatched.size:
            mapping[unmatched] = np.argmax(similarity[unmatched], axis=1)
        return mapping


def aligned_user_labels(
    alignment: ShardAlignment,
    results: list[CPDResult],
    user_maps: list[np.ndarray],
    n_users: int,
) -> np.ndarray:
    """Global hard community label per global user id, shape ``(U,)``.

    ``user_maps[s][local]`` is the global user id of shard ``s``'s local
    user. The per-shard argmax membership is pushed through the alignment —
    this is the vector the NMI acceptance test compares against a
    monolithic fit.
    """
    labels = np.full(n_users, -1, dtype=np.int64)
    for shard_id, (result, user_map) in enumerate(zip(results, user_maps)):
        hard = result.hard_community_per_user()
        labels[user_map] = alignment.map_communities(shard_id, hard)
    return labels
