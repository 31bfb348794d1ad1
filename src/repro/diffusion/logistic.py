"""Logistic regression with per-example fixed offsets.

The M-step of CPD (paper Sect. 4.2) optimises the individual-preference
weights ``nu`` by "essentially fitting a logistic regression" over observed
diffusion links (positives) and sampled non-links (negatives), while the
community term ``c_bar^T eta_bar`` and the topic-popularity term ``n_tz``
stay fixed inside the sigmoid — they enter here as per-example offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sampling.polya_gamma import sigmoid


@dataclass(frozen=True)
class LogisticFit:
    """Result of a logistic-regression fit."""

    weights: np.ndarray
    bias: float
    n_iterations: int
    final_loss: float

    def logits(self, features: np.ndarray, offsets: np.ndarray | None = None) -> np.ndarray:
        """Linear scores ``offset + bias + features @ weights``."""
        features = np.asarray(features, dtype=np.float64)
        scores = features @ self.weights + self.bias
        if offsets is not None:
            scores = scores + np.asarray(offsets, dtype=np.float64)
        return scores

    def predict_proba(
        self, features: np.ndarray, offsets: np.ndarray | None = None
    ) -> np.ndarray:
        """Sigmoid probabilities of the positive class."""
        return sigmoid(self.logits(features, offsets))


@dataclass
class LogisticTrainerConfig:
    """Projected-Newton settings (the paper's inner loop T2)."""

    #: cap on Newton steps; the solver usually stops on ``tolerance`` first
    n_iterations: int = 100
    l2_penalty: float = 1e-3
    fit_bias: bool = True
    tolerance: float = 1e-7
    #: z-score features internally, then fold the scaling back into the
    #: returned weights. The L2 penalty applies to the standardised weights,
    #: so features whose magnitudes differ by orders of magnitude (the
    #: probability-normalised community term vs. the log-ratio user
    #: features) are shrunk alike.
    standardize: bool = False
    #: feature indices whose weights are constrained to be >= 0. Used for
    #: factor-*contribution* weights (community, popularity) that are
    #: meaningful only as non-negative strengths; collinear features can
    #: otherwise flip their signs arbitrarily.
    nonnegative: tuple[int, ...] = ()


#: Armijo sufficient-decrease constant and the smallest step fraction tried
_ARMIJO = 1e-4
_MIN_STEP = 1e-10


class LogisticTrainer:
    """Projected Newton for the offset logistic model (DESIGN.md §3 item 5)."""

    def __init__(self, config: LogisticTrainerConfig | None = None) -> None:
        self.config = config or LogisticTrainerConfig()
        if self.config.n_iterations < 1:
            raise ValueError("n_iterations must be at least 1")
        if self.config.l2_penalty < 0:
            raise ValueError("l2_penalty must be non-negative")

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        offsets: np.ndarray | None = None,
        initial_weights: np.ndarray | None = None,
        initial_bias: float = 0.0,
        compiled: bool = False,
    ) -> LogisticFit:
        """Maximise the penalised Bernoulli log-likelihood.

        ``labels`` must be 0/1; ``offsets`` (if given) are added to every
        logit but carry no trainable parameter. The bias is unpenalised.

        With ``compiled=True`` the Newton loop runs in the C backend
        (``cpd_logistic_newton``, DESIGN.md §10) when it loads: the same
        steps, weights to rounding. A Hessian block its Cholesky solve
        finds (near) singular sends the fit to the numpy loop below, the
        executable spec, which also runs whenever the backend is missing.
        """
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        n_examples, n_features = features.shape
        if labels.shape != (n_examples,):
            raise ValueError("labels must align with feature rows")
        if not np.all((labels == 0) | (labels == 1)):
            raise ValueError("labels must be binary")
        if offsets is not None:
            offsets = np.asarray(offsets, dtype=np.float64)
            if offsets.shape != (n_examples,):
                raise ValueError("offsets must align with feature rows")

        cfg = self.config
        clamped = np.zeros(n_features + 1, dtype=bool)
        clamped[list(cfg.nonnegative)] = True
        if compiled and n_examples:
            # deferred import: repro.core pulls this module in at package import
            from ..core import _compiled

            if _compiled.backend_status()[0]:
                solved = _compiled.logistic_newton(
                    features, labels, offsets, clamped, initial_weights, initial_bias,
                    l2_penalty=cfg.l2_penalty, fit_bias=cfg.fit_bias,
                    standardize=cfg.standardize, tolerance=cfg.tolerance,
                    max_steps=cfg.n_iterations,
                )
                if solved is not None:
                    weights, bias, steps, loss = solved
                    return LogisticFit(
                        weights=weights, bias=bias, n_iterations=steps, final_loss=loss
                    )
        if offsets is None:
            offsets = np.zeros(n_examples)
        if cfg.standardize:
            means = features.mean(axis=0)
            stds = features.std(axis=0)
            stds = np.where(stds > 1e-8, stds, 1.0)
            features = (features - means) / stds
        else:
            means = np.zeros(n_features)
            stds = np.ones(n_features)

        # one parameter vector: standardised weights, then the bias, which
        # multiplies a constant column and carries no penalty
        design = np.column_stack([features, np.ones(n_examples)])
        penalty = np.full(n_features + 1, cfg.l2_penalty)
        penalty[-1] = 0.0
        held = np.zeros(n_features + 1, dtype=bool)
        held[-1] = not cfg.fit_bias

        params = np.zeros(n_features + 1)
        params[-1] = float(initial_bias)
        if initial_weights is not None:
            initial_weights = np.asarray(initial_weights, dtype=np.float64)
            params[:-1] = initial_weights * stds
            params[-1] += float(initial_weights @ means)
        # standardisation keeps stds positive, so signs carry over
        params[clamped] = np.maximum(params[clamped], 0.0)

        logits = design @ params + offsets
        loss = self._loss(logits, labels, params, penalty)
        iterations_run = 0
        for iterations_run in range(1, cfg.n_iterations + 1):
            probabilities = sigmoid(logits)
            gradient = design.T @ (probabilities - labels) / n_examples + penalty * params
            # active set: a clamped weight at 0 that the gradient pushes
            # further down stays put this step
            fixed = held | (clamped & (params <= 0.0) & (gradient > 0.0))
            curvature = probabilities * (1.0 - probabilities) / n_examples
            while True:
                free = ~fixed
                reduced = design[:, free]
                hessian = (reduced.T * curvature) @ reduced + np.diag(penalty[free])
                # lstsq: a singular Hessian (no penalty, a constant column)
                # still yields the minimum-norm Newton step
                step = np.zeros_like(params)
                step[free] = np.linalg.lstsq(hessian, -gradient[free], rcond=None)[0]
                # a clamped weight at 0 that the step would push below 0 is
                # held too; re-solve without it so the step stays a descent
                blocked = free & clamped & (params <= 0.0) & (step < 0.0)
                if not blocked.any():
                    break
                fixed |= blocked
            # Armijo backtracking along the projected arc
            fraction = 1.0
            while True:
                candidate = params + fraction * step
                candidate[clamped] = np.maximum(candidate[clamped], 0.0)
                candidate_logits = design @ candidate + offsets
                candidate_loss = self._loss(candidate_logits, labels, candidate, penalty)
                decrease = _ARMIJO * float(gradient @ (candidate - params))
                if candidate_loss <= loss + decrease:
                    break
                fraction *= 0.5
                if fraction < _MIN_STEP:
                    candidate, candidate_logits, candidate_loss = params, logits, loss
                    break
            change = loss - candidate_loss
            params, logits, loss = candidate, candidate_logits, candidate_loss
            if change < cfg.tolerance:
                break
        # fold the standardisation back: logits over raw features are identical
        raw_weights = params[:-1] / stds
        raw_bias = float(params[-1]) - float(raw_weights @ means)
        return LogisticFit(
            weights=raw_weights,
            bias=raw_bias,
            n_iterations=iterations_run,
            final_loss=float(loss),
        )

    @staticmethod
    def _loss(
        logits: np.ndarray, labels: np.ndarray, params: np.ndarray, penalty: np.ndarray
    ) -> float:
        """Mean negative log-likelihood plus the L2 penalty (stable form)."""
        # log(1 + exp(x)) computed without overflow
        nll = np.logaddexp(0.0, logits) - labels * logits
        return float(nll.mean()) + 0.5 * float(penalty @ (params * params))
