"""Common interface for CPD and every baseline (paper Sect. 6.1).

The evaluation harness compares methods on up to five tasks — community
detection (conductance), friendship link prediction, diffusion link
prediction, community ranking, and content-profile perplexity. Each method
implements the capabilities it supports (Table 4 of the paper) and returns
``None``/raises for the rest.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..graph.social_graph import SocialGraph
from ..sampling.rng import RngLike


@dataclass(frozen=True)
class MethodProfiles:
    """Profile outputs needed by ranking (Eq. 19) and perplexity (Fig. 8)."""

    theta: np.ndarray  # (C, Z) community content profiles
    eta: np.ndarray  # (C, C, Z) community diffusion profiles
    phi: np.ndarray  # (Z, W) topic-word distributions


class BaselineModel(abc.ABC):
    """A method under evaluation. ``fit`` must be called before scoring."""

    #: display name used in benchmark tables
    name: str = "unnamed"

    @abc.abstractmethod
    def fit(self, graph: SocialGraph, rng: RngLike = None) -> "BaselineModel":
        """Train on the full graph (the paper's protocol trains once)."""

    # ---------------------------------------------------------------- outputs

    def memberships(self) -> np.ndarray | None:
        """(U, C) community membership matrix, or None if not modelled."""
        return None

    def friendship_scores(
        self, source_users: np.ndarray, target_users: np.ndarray
    ) -> np.ndarray:
        """Scores for user pairs; default: membership similarity (Eq. 3)."""
        pi = self.memberships()
        if pi is None:
            raise NotImplementedError(f"{self.name} does not score friendship links")
        source_users = np.asarray(source_users, dtype=np.int64)
        target_users = np.asarray(target_users, dtype=np.int64)
        return np.einsum("ij,ij->i", pi[source_users], pi[target_users])

    @abc.abstractmethod
    def diffusion_scores(
        self,
        source_docs: np.ndarray,
        target_docs: np.ndarray,
        timestamps: np.ndarray,
    ) -> np.ndarray:
        """Scores for document pairs (diffusion link prediction)."""

    def profiles(self) -> MethodProfiles | None:
        """Community profiles, or None when the method has none."""
        return None


def require_fitted(attribute: object, name: str) -> None:
    """Raise a uniform error when a model output is read before ``fit``."""
    if attribute is None:
        raise RuntimeError(f"call fit() on {name} before reading outputs")
