"""Degenerated CPD variants for the model-design study (paper Sect. 6.2).

Each ablation is CPD with one design element removed:

* ``no_joint`` — "first detect communities only from the friendship links
  through a generative model by Eq. 3, then extract the profiles ... with
  the communities fixed" (two-phase, Figs. 3(a)-(f));
* ``no_heterogeneity`` — "model friendship links and diffusion links in the
  same way by Eq. (3)" (Figs. 3(a)-(f));
* ``no_individual_topic`` — Eq. 5 without the individual and topic factors
  (Figs. 3(g)-(h));
* ``no_topic`` — Eq. 5 without the topic-popularity factor (Figs. 3(g)-(h)).
"""

from __future__ import annotations

import numpy as np

from ..apps.diffusion_prediction import DiffusionPredictor
from ..core.config import CPDConfig
from ..core.model import CPDModel, FitOptions
from ..core.result import CPDResult
from ..graph.social_graph import SocialGraph
from ..sampling.rng import RngLike, ensure_rng
from .base import BaselineModel, MethodProfiles, require_fitted

VARIANTS = ("full", "no_joint", "no_heterogeneity", "no_individual_topic", "no_topic")


def variant_config(base: CPDConfig, variant: str) -> CPDConfig:
    """Translate a variant name into CPD config switches."""
    if variant in ("full", "no_joint"):
        return base  # no_joint differs in the fitting schedule, not the config
    if variant == "no_heterogeneity":
        return base.with_overrides(heterogeneity=False)
    if variant == "no_individual_topic":
        return base.with_overrides(use_individual_factor=False, use_topic_factor=False)
    if variant == "no_topic":
        return base.with_overrides(use_topic_factor=False)
    raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")


def fit_no_joint(graph: SocialGraph, config: CPDConfig, rng: RngLike = None) -> CPDResult:
    """Two-phase "no joint modeling": detect on F only, then profile with C fixed."""
    generator = ensure_rng(rng)
    detection_config = config.with_overrides(
        model_diffusion=False,
        community_uses_content=False,
    )
    detection = CPDModel(detection_config, rng=generator).fit(graph)
    profiling = CPDModel(config, rng=generator).fit(
        graph, FitOptions(fixed_communities=detection.doc_community)
    )
    return profiling


def fit_variant(
    graph: SocialGraph, config: CPDConfig, variant: str, rng: RngLike = None
) -> CPDResult:
    """Fit any Sect. 6.2 variant and return its result."""
    if variant == "no_joint":
        return fit_no_joint(graph, config, rng)
    return CPDModel(variant_config(config, variant), rng=rng).fit(graph)


class CPDVariant(BaselineModel):
    """Adapter exposing CPD (or an ablation) through the baseline interface."""

    def __init__(self, config: CPDConfig, variant: str = "full") -> None:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
        self.base_config = config
        self.variant = variant
        self.name = "CPD" if variant == "full" else f"CPD[{variant}]"
        self._result: CPDResult | None = None
        self._predictor: DiffusionPredictor | None = None

    def fit(self, graph: SocialGraph, rng: RngLike = None) -> "CPDVariant":
        self._graph = graph
        self._result = fit_variant(graph, self.base_config, self.variant, rng)
        self._predictor = DiffusionPredictor(self._result, graph)
        return self

    @property
    def result(self) -> CPDResult:
        require_fitted(self._result, self.name)
        return self._result

    def memberships(self) -> np.ndarray | None:
        return None if self._result is None else self._result.pi

    def diffusion_scores(
        self,
        source_docs: np.ndarray,
        target_docs: np.ndarray,
        timestamps: np.ndarray,
    ) -> np.ndarray:
        require_fitted(self._predictor, self.name)
        if self.variant == "no_heterogeneity":
            # diffusion modelled by Eq. 3: membership similarity of the users
            doc_user = self._graph.doc_user
            pi = self._result.pi
            source_users = doc_user[np.asarray(source_docs, dtype=np.int64)]
            target_users = doc_user[np.asarray(target_docs, dtype=np.int64)]
            return np.einsum("ij,ij->i", pi[source_users], pi[target_users])
        return self._predictor.score_pairs(source_docs, target_docs, timestamps)

    def profiles(self) -> MethodProfiles | None:
        if self._result is None:
            return None
        return MethodProfiles(
            theta=self._result.theta, eta=self._result.eta, phi=self._result.phi
        )
