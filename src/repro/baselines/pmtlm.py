"""PMTLM baseline — Poisson Mixed-Topic Link Model (Zhu et al., KDD'13 [43]).

PMTLM models a *document* network: each document has an LDA-style topic
mixture ``theta_d``, and a link between documents i and j is Poisson with
rate ``sum_z theta_iz theta_jz eta_z`` — links form between documents that
share topics, with a per-topic link propensity ``eta_z``.

Following the paper's adaptation (Sect. 6.1): communities are identified
with topics, a user's membership is the aggregate of her documents' topic
mixtures, friendship links are scored by membership similarity, and
diffusion links by the Poisson rate. The paper notes PMTLM is *not
applicable to Twitter* because a retweet is nearly identical to its source
tweet; the benchmark accordingly runs it on the DBLP scenario only.
"""

from __future__ import annotations

import numpy as np

from ..diffusion.negative_sampling import sample_negative_diffusion_pairs
from ..graph.social_graph import SocialGraph
from ..sampling.rng import RngLike, ensure_rng
from ..topics.lda import LDA, LDAConfig
from .base import BaselineModel, MethodProfiles, require_fitted


class PMTLM(BaselineModel):
    """Mixed-topic document model with per-topic Poisson link rates."""

    name = "PMTLM"

    def __init__(
        self,
        n_communities: int,
        lda_iterations: int = 40,
        alpha: float | None = None,
        beta: float = 0.1,
    ) -> None:
        # PMTLM communities *are* topics: one mixture plays both roles.
        self.n_communities = n_communities
        self.lda_iterations = lda_iterations
        self.alpha = alpha
        self.beta = beta
        self._doc_mixtures: np.ndarray | None = None
        self._memberships: np.ndarray | None = None
        self._eta_z: np.ndarray | None = None
        self._lda: LDA | None = None

    def fit(self, graph: SocialGraph, rng: RngLike = None) -> "PMTLM":
        generator = ensure_rng(rng)
        self._graph = graph
        lda = LDA(
            LDAConfig(
                n_topics=self.n_communities,
                alpha=self.alpha,
                beta=self.beta,
                n_iterations=self.lda_iterations,
            ),
            rng=generator,
        )
        lda.fit([doc.words for doc in graph.documents], graph.n_words)
        self._lda = lda
        self._doc_mixtures = lda.doc_topic_distribution  # (D, Z)

        # user membership: aggregate of the user's document mixtures
        memberships = np.zeros((graph.n_users, self.n_communities))
        for user in range(graph.n_users):
            doc_ids = graph.documents_of(user)
            if doc_ids:
                memberships[user] = self._doc_mixtures[doc_ids].mean(axis=0)
            else:
                memberships[user] = 1.0 / self.n_communities
        self._memberships = memberships

        self._estimate_link_rates(graph, generator)
        return self

    def _estimate_link_rates(self, graph: SocialGraph, rng: np.random.Generator) -> None:
        """Per-topic Poisson rates ``eta_z`` by moment matching.

        ``eta_z`` is the ratio of observed topic-z co-membership mass on
        links to the expected mass on random document pairs (estimated from
        sampled non-links), so topics whose documents link far more often
        than chance get high rates.
        """
        mixtures = self._doc_mixtures
        positive_mass = np.zeros(self.n_communities)
        for link in graph.diffusion_links:
            positive_mass += mixtures[link.source_doc] * mixtures[link.target_doc]
        n_links = max(graph.n_diffusion_links, 1)
        negatives = sample_negative_diffusion_pairs(
            graph, n_links, rng, allow_fewer=True
        )
        background_mass = (
            mixtures[negatives[:, 0]] * mixtures[negatives[:, 1]]
        ).sum(axis=0)
        background_mass /= max(len(negatives), 1)
        positive_mass /= n_links
        self._eta_z = positive_mass / np.maximum(background_mass, 1e-12)

    # ---------------------------------------------------------------- outputs

    def memberships(self) -> np.ndarray | None:
        return self._memberships

    def diffusion_scores(
        self,
        source_docs: np.ndarray,
        target_docs: np.ndarray,
        timestamps: np.ndarray,
    ) -> np.ndarray:
        require_fitted(self._doc_mixtures, self.name)
        source_docs = np.asarray(source_docs, dtype=np.int64)
        target_docs = np.asarray(target_docs, dtype=np.int64)
        return np.einsum(
            "nz,nz,z->n",
            self._doc_mixtures[source_docs],
            self._doc_mixtures[target_docs],
            self._eta_z,
        )

    def profiles(self) -> MethodProfiles | None:
        if self._lda is None:
            return None
        # communities == topics: theta is (nearly) the identity mixture,
        # eta is diagonal in the community pair with per-topic rates
        n = self.n_communities
        theta = np.full((n, n), 1e-6)
        np.fill_diagonal(theta, 1.0)
        theta /= theta.sum(axis=1, keepdims=True)
        eta = np.zeros((n, n, n))
        for z in range(n):
            eta[z, z, z] = self._eta_z[z]
        total = eta.sum()
        if total > 0:
            eta /= total
        return MethodProfiles(theta=theta, eta=eta, phi=self._lda.phi)
