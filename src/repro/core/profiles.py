"""Typed community-profile views over a :class:`CPDResult`.

Definitions 4 and 5 of the paper: a community's *content profile* is its
distribution over topics; its *diffusion profile* is a ``(C, Z)`` slice of
``eta`` — how strongly it diffuses each other community on each topic.
These wrappers exist so applications can pass one community's profile
around without dragging the whole result object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.vocabulary import Vocabulary
from .result import CPDResult


@dataclass(frozen=True)
class ContentProfile:
    """``theta_c``: what a community talks about (Definition 4)."""

    community: int
    topics: np.ndarray

    def top_topics(self, n: int = 5) -> list[tuple[int, float]]:
        order = np.argsort(-self.topics)[:n]
        return [(int(z), float(self.topics[z])) for z in order]

    def entropy(self) -> float:
        """Topical focus: low entropy = specialised community."""
        p = np.clip(self.topics, 1e-300, None)
        return float(-(p * np.log(p)).sum())


@dataclass(frozen=True)
class DiffusionProfile:
    """``eta_c``: whom a community diffuses, on what (Definition 5)."""

    community: int
    strengths: np.ndarray  # (C, Z)

    def aggregated(self) -> np.ndarray:
        """Per-target strengths summed over topics (Fig. 7(a) view)."""
        return self.strengths.sum(axis=1)

    def self_strength(self) -> float:
        return float(self.strengths[self.community].sum())

    def openness(self) -> float:
        total = self.strengths.sum()
        if total <= 0:
            return 0.0
        return float(1.0 - self.self_strength() / total)


@dataclass(frozen=True)
class CommunityProfile:
    """Both halves of one community's profile, plus readable rendering."""

    community: int
    content: ContentProfile
    diffusion: DiffusionProfile

    def describe(self, result: CPDResult, vocabulary: Vocabulary | None = None) -> str:
        topic_bits = []
        for z, weight in self.content.top_topics(3):
            if vocabulary is not None:
                words = ",".join(w for w, _ in result.top_words(z, 3, vocabulary))
                topic_bits.append(f"z{z}[{words}]={weight:.2f}")
            else:
                topic_bits.append(f"z{z}={weight:.2f}")
        targets = self.diffusion.aggregated()
        top_targets = np.argsort(-targets)[:3]
        target_bits = [f"c{t}={targets[t]:.3f}" for t in top_targets]
        return (
            f"community c{self.community}: content {' '.join(topic_bits)}; "
            f"diffuses {' '.join(target_bits)}; openness={self.diffusion.openness():.2f}"
        )


def profile_of(result: CPDResult, community: int) -> CommunityProfile:
    """Extract one community's full profile from a result."""
    if not 0 <= community < result.n_communities:
        raise ValueError(f"community {community} out of range")
    return CommunityProfile(
        community=community,
        content=ContentProfile(community=community, topics=result.theta[community].copy()),
        diffusion=DiffusionProfile(community=community, strengths=result.eta[community].copy()),
    )


def all_profiles(result: CPDResult) -> list[CommunityProfile]:
    """Profiles for every community."""
    return [profile_of(result, c) for c in range(result.n_communities)]
