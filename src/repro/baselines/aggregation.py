"""The "first detect, then aggregate" profiling baselines (paper Sect. 6.1).

CRM+Agg and COLD+Agg take the communities detected by CRM/COLD, run LDA on
all documents, and *aggregate* user observations into profiles instead of
inferring them jointly:

    content profile (Eq. 20):
        theta*_c = sum_u pi*_uc * mean_i theta*_{d_ui}
    diffusion profile (Eq. 21):
        eta*_cc'z  proportional to  sum_{(i,j) in E} pi*_uc pi*_vc'
                                     theta*_{d_i,z} theta*_{d_j,z}

These are the straw men that motivate joint modelling: they satisfy the
letter of "community profile" but never ask the profiles to explain the
observations (paper Eq. 1), which is exactly what Figs. 4, 6 and 8 punish.
"""

from __future__ import annotations

import numpy as np

from ..graph.social_graph import SocialGraph
from ..sampling.rng import RngLike, ensure_rng
from ..topics.lda import LDA, LDAConfig
from .base import BaselineModel, MethodProfiles, require_fitted
from .cold import COLD
from .crm import CRM


def aggregate_content_profile(
    graph: SocialGraph, memberships: np.ndarray, doc_mixtures: np.ndarray
) -> np.ndarray:
    """Eq. 20: membership-weighted average of per-user mean doc mixtures."""
    n_communities = memberships.shape[1]
    n_topics = doc_mixtures.shape[1]
    theta = np.zeros((n_communities, n_topics))
    for user in range(graph.n_users):
        doc_ids = graph.documents_of(user)
        if not doc_ids:
            continue
        user_mean = doc_mixtures[doc_ids].mean(axis=0)
        theta += memberships[user][:, None] * user_mean[None, :]
    row_sums = theta.sum(axis=1, keepdims=True)
    uniform = 1.0 / n_topics
    return np.where(row_sums > 0, theta / np.where(row_sums > 0, row_sums, 1.0), uniform)


def aggregate_diffusion_profile(
    graph: SocialGraph, memberships: np.ndarray, doc_mixtures: np.ndarray
) -> np.ndarray:
    """Eq. 21: link-mass aggregation over communities and topics."""
    n_communities = memberships.shape[1]
    n_topics = doc_mixtures.shape[1]
    doc_user = graph.doc_user
    eta = np.zeros((n_communities, n_communities, n_topics))
    for link in graph.diffusion_links:
        i, j = link.source_doc, link.target_doc
        pi_u = memberships[doc_user[i]]
        pi_v = memberships[doc_user[j]]
        topic_mass = doc_mixtures[i] * doc_mixtures[j]  # (Z,)
        eta += pi_u[:, None, None] * pi_v[None, :, None] * topic_mass[None, None, :]
    total = eta.sum()
    if total > 0:
        eta /= total
    return eta


class AggregationBaseline(BaselineModel):
    """Common machinery: a detector's memberships + LDA + Eqs. 20-21."""

    def __init__(self, detector: BaselineModel, n_topics: int, lda_iterations: int = 40) -> None:
        self.detector = detector
        self.n_topics = n_topics
        self.lda_iterations = lda_iterations
        self._profiles: MethodProfiles | None = None
        self._doc_mixtures: np.ndarray | None = None
        self._memberships: np.ndarray | None = None

    def fit(self, graph: SocialGraph, rng: RngLike = None) -> "AggregationBaseline":
        generator = ensure_rng(rng)
        self._graph = graph
        self.detector.fit(graph, generator)
        memberships = self.detector.memberships()
        if memberships is None:
            raise RuntimeError(f"{self.detector.name} produced no memberships to aggregate")
        self._memberships = memberships

        lda = LDA(
            LDAConfig(n_topics=self.n_topics, n_iterations=self.lda_iterations),
            rng=generator,
        )
        lda.fit([doc.words for doc in graph.documents], graph.n_words)
        self._doc_mixtures = lda.doc_topic_distribution

        theta = aggregate_content_profile(graph, memberships, self._doc_mixtures)
        eta = aggregate_diffusion_profile(graph, memberships, self._doc_mixtures)
        self._profiles = MethodProfiles(theta=theta, eta=eta, phi=lda.phi)
        return self

    # ---------------------------------------------------------------- outputs

    def memberships(self) -> np.ndarray | None:
        return self._memberships

    def diffusion_scores(
        self,
        source_docs: np.ndarray,
        target_docs: np.ndarray,
        timestamps: np.ndarray,
    ) -> np.ndarray:
        """Aggregated community-level score: membership- and topic-weighted
        diffusion mass between the two documents' communities."""
        require_fitted(self._profiles, self.name)
        doc_user = self._graph.doc_user
        source_docs = np.asarray(source_docs, dtype=np.int64)
        target_docs = np.asarray(target_docs, dtype=np.int64)
        pi = self._memberships
        eta = self._profiles.eta
        mixtures = self._doc_mixtures
        scores = np.empty(len(source_docs))
        for index, (i, j) in enumerate(zip(source_docs, target_docs)):
            pi_u = pi[doc_user[i]]
            pi_v = pi[doc_user[j]]
            topic_mass = mixtures[i] * mixtures[j]
            scores[index] = float(
                np.einsum("c,d,z,cdz->", pi_u, pi_v, topic_mass, eta)
            )
        return scores

    def profiles(self) -> MethodProfiles | None:
        return self._profiles


class CRMAgg(AggregationBaseline):
    """CRM detection + Eq. 20/21 aggregation (the paper's CRM+Agg)."""

    name = "CRM+Agg"

    def __init__(self, n_communities: int, n_topics: int, **crm_kwargs) -> None:
        super().__init__(CRM(n_communities, **crm_kwargs), n_topics)


class COLDAgg(AggregationBaseline):
    """COLD detection + Eq. 20/21 aggregation (the paper's COLD+Agg)."""

    name = "COLD+Agg"

    def __init__(self, n_communities: int, n_topics: int, **cold_kwargs) -> None:
        super().__init__(COLD(n_communities, n_topics, **cold_kwargs), n_topics)
