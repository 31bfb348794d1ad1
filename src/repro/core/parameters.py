"""Model parameters learned in the M-step (paper Sect. 4.2).

``eta`` is the diffusion profile tensor (Definition 5). The factor weights
combine the three diffusion factors of Eq. 5 into the sigmoid logit:

    logit = comm_weight * (c_bar^T eta_bar) + pop_weight * n_tz
            + nu^T f_uv + bias

The paper fixes the community and popularity coefficients at 1 and learns
only ``nu``; because our ``eta`` is probability-normalised (entries sum to
one globally, matching the magnitudes of the paper's Fig. 5(c) case study),
the community term would be orders of magnitude smaller than the feature
term, so the M-step's logistic regression also learns ``comm_weight`` and
``pop_weight`` — "we learn the parameters ... so that we know how much each
factor contributes in the diffusion" (Sect. 3.1). Ablations freeze the
corresponding weight at zero. See DESIGN.md §3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class DiffusionParameters:
    """``eta`` plus the learned factor-combination weights."""

    eta: np.ndarray
    comm_weight: float = 1.0
    pop_weight: float = 1.0
    nu: np.ndarray = field(default_factory=lambda: np.zeros(4))
    bias: float = 0.0

    @classmethod
    def initial(cls, n_communities: int, n_topics: int, n_features: int = 4) -> "DiffusionParameters":
        """Uniform eta, unit factor weights, zero nu — the Alg. 1 init."""
        cells = n_communities * n_communities * n_topics
        eta = np.full((n_communities, n_communities, n_topics), 1.0 / cells)
        return cls(eta=eta, comm_weight=1.0, pop_weight=1.0, nu=np.zeros(n_features), bias=0.0)

    def copy(self) -> "DiffusionParameters":
        return DiffusionParameters(
            eta=self.eta.copy(),
            comm_weight=self.comm_weight,
            pop_weight=self.pop_weight,
            nu=self.nu.copy(),
            bias=self.bias,
        )

    def logits(self, components: dict[str, np.ndarray]) -> np.ndarray:
        """The logit above for rows of per-factor values, as
        ``CPDSampler.diffusion_components`` returns them."""
        return (
            self.comm_weight * components["community"]
            + self.pop_weight * components["popularity"]
            + components["features"] @ self.nu
            + self.bias
        )

    def factor_contributions(self) -> dict[str, float]:
        """Absolute factor weights — the "how much each factor contributes" readout."""
        return {
            "community": abs(self.comm_weight),
            "topic_popularity": abs(self.pop_weight),
            "individual": float(np.abs(self.nu).sum()),
        }
