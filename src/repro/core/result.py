"""Inference results: the five CPD outputs listed in paper Sect. 5.

A :class:`CPDResult` carries (1) community memberships ``pi``, (2) content
profiles ``theta``, (3) diffusion profiles ``eta``, (4) topic-word
distributions ``phi`` and (5) the individual-preference parameters ``nu``
(inside :class:`DiffusionParameters`), plus the final per-document
assignments and per-iteration diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.vocabulary import Vocabulary
from .config import CPDConfig
from .parameters import DiffusionParameters


@dataclass(frozen=True)
class IterationTrace:
    """Per-EM-iteration diagnostics.

    The phase timings split ``seconds`` into the three Alg. 1 stages; they
    default to 0.0 so artifacts saved before they existed still load
    (``core/io.py`` round-trips entries as plain dicts).
    """

    iteration: int
    seconds: float
    mean_friendship_probability: float
    mean_diffusion_probability: float
    #: Gibbs sweep over all documents (Alg. 1 steps 3-10)
    e_step_seconds: float = 0.0
    #: Pólya-Gamma draws for every link (0.0 when the sweeper fused them)
    augmentation_seconds: float = 0.0
    #: eta re-aggregation + nu logistic fit (Alg. 1 steps 11-14)
    m_step_seconds: float = 0.0


@dataclass
class CPDResult:
    """Everything inferred by one CPD fit."""

    config: CPDConfig
    pi: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    diffusion: DiffusionParameters
    doc_community: np.ndarray
    doc_topic: np.ndarray
    trace: list[IterationTrace] = field(default_factory=list)
    graph_name: str = ""

    # ------------------------------------------------------------- dimensions

    @property
    def n_users(self) -> int:
        return int(self.pi.shape[0])

    @property
    def n_communities(self) -> int:
        return int(self.theta.shape[0])

    @property
    def n_topics(self) -> int:
        return int(self.theta.shape[1])

    @property
    def n_words(self) -> int:
        return int(self.phi.shape[1])

    @property
    def eta(self) -> np.ndarray:
        """The diffusion-profile tensor, shape ``(C, C, Z)`` (Definition 5)."""
        return self.diffusion.eta

    # ------------------------------------------------------------ memberships

    def top_communities_per_user(self, k: int = 5) -> np.ndarray:
        """Each user's ``k`` most probable communities, shape ``(U, k)``.

        The paper's evaluation assigns each user to her top five communities
        for conductance and ranking (Sect. 6.1). The serving layer calls
        this per store warm-up, so the selection is ``argpartition`` (O(U*C))
        followed by a sort of only the selected ``k`` columns, instead of a
        full row sort.
        """
        k = min(k, self.n_communities)
        if k == self.n_communities:
            return np.argsort(-self.pi, axis=1)
        selected = np.argpartition(-self.pi, k, axis=1)[:, :k]
        selected_pi = np.take_along_axis(self.pi, selected, axis=1)
        order = np.argsort(-selected_pi, axis=1, kind="stable")
        return np.take_along_axis(selected, order, axis=1)

    def community_members(self, k: int = 5) -> list[np.ndarray]:
        """User ids belonging to each community under top-``k`` assignment."""
        top = self.top_communities_per_user(k)
        return [
            np.flatnonzero((top == community).any(axis=1))
            for community in range(self.n_communities)
        ]

    def hard_community_per_user(self) -> np.ndarray:
        """Argmax community per user (used by NMI recovery tests)."""
        return np.argmax(self.pi, axis=1)

    # ---------------------------------------------------------------- content

    def top_topics(self, community: int, n: int = 5) -> list[tuple[int, float]]:
        """The ``n`` strongest topics of a community's content profile."""
        row = self.theta[community]
        order = np.argsort(-row)[:n]
        return [(int(z), float(row[z])) for z in order]

    def top_words(
        self, topic: int, n: int = 10, vocabulary: Vocabulary | None = None
    ) -> list[tuple[str, float]]:
        """The ``n`` strongest words of a topic (paper Table 5)."""
        row = self.phi[topic]
        order = np.argsort(-row)[:n]
        if vocabulary is None:
            return [(str(w), float(row[w])) for w in order]
        return [(vocabulary.word_of(int(w)), float(row[w])) for w in order]

    # -------------------------------------------------------------- diffusion

    def aggregated_diffusion_matrix(self) -> np.ndarray:
        """``sum_z eta`` as a (C, C) matrix (Fig. 7(a) visualization)."""
        return self.eta.sum(axis=2)

    def top_diffused_topics(
        self, source: int, target: int, n: int = 5
    ) -> list[tuple[int, float]]:
        """Top topics on which ``source`` diffuses ``target`` (Fig. 5(c))."""
        row = self.eta[source, target]
        order = np.argsort(-row)[:n]
        return [(int(z), float(row[z])) for z in order]

    def openness(self, community: int) -> float:
        """Share of a community's outgoing diffusion mass that leaves it.

        Quantifies the "open vs. closed research community" observation the
        paper draws from Fig. 7(a).
        """
        outgoing = self.eta[community].sum()
        if outgoing <= 0:
            return 0.0
        internal = self.eta[community, community].sum()
        return float(1.0 - internal / outgoing)

    # ------------------------------------------------------------- summaries

    def summary(self, vocabulary: Vocabulary | None = None, topics_per_community: int = 3) -> str:
        """Human-readable profile digest for quick inspection."""
        lines = [
            f"CPDResult on {self.graph_name or 'unnamed graph'}: "
            f"{self.n_users} users, {self.n_communities} communities, {self.n_topics} topics"
        ]
        factor = self.diffusion.factor_contributions()
        lines.append(
            "factor weights: community={community:.3f} "
            "topic={topic_popularity:.3f} individual={individual:.3f}".format(**factor)
        )
        for community in range(self.n_communities):
            tops = self.top_topics(community, topics_per_community)
            parts = []
            for z, weight in tops:
                if vocabulary is not None:
                    words = ",".join(w for w, _ in self.top_words(z, 3, vocabulary))
                    parts.append(f"z{z}({words}):{weight:.2f}")
                else:
                    parts.append(f"z{z}:{weight:.2f}")
            lines.append(
                f"  c{community:02d} openness={self.openness(community):.2f} topics: "
                + " ".join(parts)
            )
        return "\n".join(lines)
