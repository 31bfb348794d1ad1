"""CRM baseline — probabilistic Community Role Model (Han & Tang, KDD'15 [15]).

CRM jointly models friendship and diffusion links through each user's
community assignment and social *role* (opinion leader vs. ordinary user):
links concentrate inside communities, and diffusion flows preferentially
toward opinion leaders' content. It models neither text topics nor topic
popularity (Table 4 of the paper).

This re-implementation keeps those facets: a Gibbs-sampled stochastic block
model over friendship links yields mixed memberships; a per-user leadership
score is estimated from diffusion in-flow; diffusion links are scored by a
logistic model over community co-membership and the two users' roles.
"""

from __future__ import annotations

import numpy as np

from ..diffusion.logistic import LogisticFit, LogisticTrainer, LogisticTrainerConfig
from ..diffusion.negative_sampling import sample_negative_diffusion_pairs
from ..graph.social_graph import SocialGraph
from ..sampling.categorical import sample_categorical
from ..sampling.rng import RngLike, ensure_rng
from .base import BaselineModel, require_fitted


class CRM(BaselineModel):
    """Blockmodel communities + user roles for diffusion."""

    name = "CRM"

    def __init__(
        self,
        n_communities: int,
        n_iterations: int = 40,
        burn_in: int = 10,
        rho: float = 0.5,
        negative_ratio: float = 1.0,
        lr_iterations: int = 200,
    ) -> None:
        if n_communities < 1:
            raise ValueError("n_communities must be positive")
        self.n_communities = n_communities
        self.n_iterations = n_iterations
        self.burn_in = min(burn_in, max(n_iterations - 1, 0))
        self.rho = rho
        self.negative_ratio = negative_ratio
        self.lr_iterations = lr_iterations
        self._memberships: np.ndarray | None = None
        self._roles: np.ndarray | None = None
        self._fit_result: LogisticFit | None = None

    # --------------------------------------------------------------- training

    def fit(self, graph: SocialGraph, rng: RngLike = None) -> "CRM":
        generator = ensure_rng(rng)
        self._graph = graph
        self._sample_communities(graph, generator)
        self._estimate_roles(graph)
        self._fit_diffusion(graph, generator)
        return self

    def _sample_communities(self, graph: SocialGraph, rng: np.random.Generator) -> None:
        """Collapsed Gibbs on a blockmodel over friendship *and* diffusion ties.

        CRM generates both link types from community and role assignments
        together — both are treated homophilously. This is precisely the
        heterogeneity blind spot the CPD paper identifies (Sect. 1): when
        inter-community diffusion is strong ("weak ties"), diffusion ties
        pull CRM's blocks across real community boundaries.

        Membership probabilities average the post-burn-in samples, giving
        the soft ``pi*`` CRM exposes.
        """
        n_users = graph.n_users
        n_communities = self.n_communities
        assignment = rng.integers(0, n_communities, size=n_users)
        sizes = np.bincount(assignment, minlength=n_communities).astype(np.float64)
        doc_user = graph.doc_user
        tie_lists: list[list[int]] = [list(graph.friendship_neighbors(u)) for u in range(n_users)]
        for link in graph.diffusion_links:
            u = int(doc_user[link.source_doc])
            v = int(doc_user[link.target_doc])
            if u != v:
                tie_lists[u].append(v)
                tie_lists[v].append(u)
        neighbor_lists = [np.asarray(ties, dtype=np.int64) for ties in tie_lists]
        membership_samples = np.zeros((n_users, n_communities))
        # degree-corrected affinity: each shared-community neighbour adds
        # log(1 + kappa), minus the expected count under random placement —
        # without the correction the sampler collapses into one giant block
        kappa = 4.0
        log_affinity = np.log1p(kappa)
        for iteration in range(self.n_iterations):
            for user in range(n_users):
                sizes[assignment[user]] -= 1
                neighbors = neighbor_lists[user]
                if len(neighbors):
                    same_counts = np.bincount(
                        assignment[neighbors], minlength=n_communities
                    ).astype(np.float64)
                    expected = len(neighbors) * sizes / max(n_users - 1, 1)
                    affinity = (same_counts - expected) * log_affinity
                else:
                    affinity = np.zeros(n_communities)
                log_weights = np.log(sizes + self.rho) + affinity
                weights = np.exp(log_weights - log_weights.max())
                new_community = sample_categorical(weights, rng)
                assignment[user] = new_community
                sizes[new_community] += 1
            if iteration >= self.burn_in:
                membership_samples[np.arange(n_users), assignment] += 1.0
        totals = membership_samples.sum(axis=1, keepdims=True)
        smoothing = self.rho
        self._memberships = (membership_samples + smoothing) / (
            totals + n_communities * smoothing
        )

    def _estimate_roles(self, graph: SocialGraph) -> None:
        """Opinion-leader score: log-scaled diffusion in-flow per document."""
        received = np.asarray(
            [graph.diffusions_received(u) for u in range(graph.n_users)],
            dtype=np.float64,
        )
        documents = np.asarray(
            [max(len(graph.documents_of(u)), 1) for u in range(graph.n_users)],
            dtype=np.float64,
        )
        self._roles = np.log1p(received / documents)

    def _fit_diffusion(self, graph: SocialGraph, rng: np.random.Generator) -> None:
        if graph.n_diffusion_links == 0:
            self._fit_result = None
            return
        pos_src = np.asarray([l.source_doc for l in graph.diffusion_links])
        pos_tgt = np.asarray([l.target_doc for l in graph.diffusion_links])
        negatives = sample_negative_diffusion_pairs(
            graph,
            int(round(self.negative_ratio * len(pos_src))),
            rng,
            allow_fewer=True,
        )
        design = np.vstack(
            [
                self._pair_design(pos_src, pos_tgt),
                self._pair_design(negatives[:, 0], negatives[:, 1]),
            ]
        )
        labels = np.concatenate([np.ones(len(pos_src)), np.zeros(len(negatives))])
        trainer = LogisticTrainer(LogisticTrainerConfig(n_iterations=self.lr_iterations))
        self._fit_result = trainer.fit(design, labels)

    def _pair_design(self, source_docs: np.ndarray, target_docs: np.ndarray) -> np.ndarray:
        doc_user = self._graph.doc_user
        users_u = doc_user[np.asarray(source_docs, dtype=np.int64)]
        users_v = doc_user[np.asarray(target_docs, dtype=np.int64)]
        co_membership = np.einsum(
            "ij,ij->i", self._memberships[users_u], self._memberships[users_v]
        )
        return np.column_stack(
            [co_membership, self._roles[users_u], self._roles[users_v]]
        )

    # ---------------------------------------------------------------- outputs

    def memberships(self) -> np.ndarray | None:
        return self._memberships

    def roles(self) -> np.ndarray:
        require_fitted(self._roles, self.name)
        return self._roles

    def diffusion_scores(
        self,
        source_docs: np.ndarray,
        target_docs: np.ndarray,
        timestamps: np.ndarray,
    ) -> np.ndarray:
        require_fitted(self._memberships, self.name)
        design = self._pair_design(source_docs, target_docs)
        if self._fit_result is None:
            return design[:, 0]
        return self._fit_result.predict_proba(design)
