"""Dirichlet-multinomial helpers used by the collapsed posteriors.

The collapsed posterior of CPD (paper Eq. 12) is a product of Dirichlet
normalisation ratios ``Delta(n + prior) / Delta(prior)`` over users,
communities and topics; these helpers compute the log-space pieces and the
smoothed point estimates used for ``pi``, ``theta`` and ``phi``
(Sect. 4.2).
"""

from __future__ import annotations

import numpy as np


def log_delta(x: np.ndarray) -> float:
    """Log of the Dirichlet normaliser ``Delta(x) = prod Gamma(x_i) / Gamma(sum x_i)``."""
    # deferred (DESIGN.md §14): no fit or serve path calls this
    from scipy.special import gammaln

    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0):
        raise ValueError("Delta is defined for positive arguments only")
    return float(gammaln(x).sum() - gammaln(x.sum()))


def log_delta_ratio(counts: np.ndarray, prior: float) -> float:
    """``log Delta(counts + prior) - log Delta(prior * 1)`` for one count vector."""
    counts = np.asarray(counts, dtype=np.float64)
    if prior <= 0:
        raise ValueError("prior must be positive")
    dim = counts.shape[-1]
    return log_delta(counts + prior) - log_delta(np.full(dim, prior))


def smoothed_probability(counts: np.ndarray, prior: float, axis: int = -1) -> np.ndarray:
    """Posterior-mean estimate ``(n + prior) / (n_total + dim * prior)``.

    This is exactly how the paper estimates ``pi_u``, ``theta_c`` and
    ``phi_z`` from Gibbs samples (Sect. 4.2), and how the samplers form the
    empirical ``pi_hat`` / ``theta_hat`` inside Eqs. 13-14.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if prior <= 0:
        raise ValueError("prior must be positive")
    totals = counts.sum(axis=axis, keepdims=True)
    dim = counts.shape[axis]
    return (counts + prior) / (totals + dim * prior)


def dirichlet_expected_log(counts: np.ndarray, prior: float, axis: int = -1) -> np.ndarray:
    """Expected log-probabilities ``E[log p]`` under ``Dir(counts + prior)``."""
    from scipy.special import digamma

    counts = np.asarray(counts, dtype=np.float64)
    if prior <= 0:
        raise ValueError("prior must be positive")
    posterior = counts + prior
    totals = posterior.sum(axis=axis, keepdims=True)
    return digamma(posterior) - digamma(totals)
