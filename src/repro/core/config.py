"""Configuration of the CPD model (priors, factor switches, schedules).

Priors follow the paper's convention (Sect. 4.2): ``alpha = 50/|Z|``,
``rho = 50/|C|``, ``beta = 0.1``. The boolean switches expose the model-design
ablations of Sect. 6.2 — every "degenerated version of CPD" the paper
compares against is this config with one switch flipped (see
:mod:`repro.baselines.ablations`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

#: the canonical accepted set for ``sweep_kernel`` — dispatch, CLI choices,
#: and validation messages all derive from this one tuple
SWEEP_KERNELS = ("reference", "compiled")


@dataclass(frozen=True)
class CPDConfig:
    """Hyper-parameters and model-design switches for CPD."""

    n_communities: int = 10
    n_topics: int = 20

    # Dirichlet priors; None means the paper's 50/dim convention.
    alpha: Optional[float] = None
    rho: Optional[float] = None
    beta: float = 0.1

    # Schedules: T1 outer EM/Gibbs iterations, T2 a cap on the inner nu
    # solver's Newton steps (it usually stops on its tolerance first).
    n_iterations: int = 30
    nu_iterations: int = 60

    # --- model-design switches (Sect. 6.2 ablations) ---
    #: model friendship links F through Eq. 3 (community similarity sigmoid)
    model_friendship: bool = True
    #: model diffusion links E at all
    model_diffusion: bool = True
    #: model E through the profile factor of Eq. 5; False degrades diffusion
    #: links to friendship-style membership-similarity factors
    #: ("no heterogeneity" in Fig. 3)
    heterogeneity: bool = True
    #: include the individual-preference factor nu^T f_uv in Eq. 5
    use_individual_factor: bool = True
    #: include the topic-popularity factor n_tz in Eq. 5
    use_topic_factor: bool = True
    #: let the content (community-topic counts) inform community sampling;
    #: switched off in the detection phase of "no joint modeling"
    community_uses_content: bool = True

    # --- diffusion-factor numerics ---
    #: additive smoothing for the eta aggregation M-step
    eta_smoothing: float = 0.01
    #: negatives per observed diffusion link for the nu logistic regression
    negative_ratio: float = 1.0
    #: L2 penalty for the nu logistic regression
    nu_l2_penalty: float = 1e-3

    # --- sampler numerics ---
    #: E-step sweep implementation: "compiled" (the fused C sweep of
    #: DESIGN.md §10, the default) or "reference" (the literal
    #: per-word/per-link loops of Eqs. 13-14, kept as the executable
    #: specification — DESIGN.md §4). "compiled" falls back to "reference"
    #: with a one-time warning when no C toolchain is available.
    sweep_kernel: str = "compiled"

    def __post_init__(self) -> None:
        if self.n_communities < 1:
            raise ValueError("n_communities must be at least 1")
        if self.n_topics < 1:
            raise ValueError("n_topics must be at least 1")
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be at least 1")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.rho is not None and self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.negative_ratio <= 0:
            raise ValueError("negative_ratio must be positive")
        if self.eta_smoothing <= 0:
            raise ValueError("eta_smoothing must be positive")
        if self.sweep_kernel not in SWEEP_KERNELS:
            raise ValueError(
                f"sweep_kernel must be one of {', '.join(SWEEP_KERNELS)}"
            )

    @property
    def resolved_alpha(self) -> float:
        """``alpha = 50/|Z|`` unless overridden (paper Sect. 4.2)."""
        return 50.0 / self.n_topics if self.alpha is None else self.alpha

    @property
    def resolved_rho(self) -> float:
        """``rho = 50/|C|`` unless overridden (paper Sect. 4.2)."""
        return 50.0 / self.n_communities if self.rho is None else self.rho

    def with_overrides(self, **overrides) -> "CPDConfig":
        """A copy of this config with some fields replaced."""
        return replace(self, **overrides)
