"""Convergence diagnostics for CPD fits.

The collapsed Gibbs sampler has no single exact objective to watch, but
three cheap proxies together tell whether a fit has stabilised:

* **content log-likelihood** — how well the current profiles explain the
  corpus (the quantity Eq. 1 maximises),
* **friendship log-likelihood** — mean ``log sigma(pi_u . pi_v)`` over F,
* **diffusion log-likelihood** — mean ``log sigma(logit)`` over E.

:func:`assess_convergence` applies a relative-change window test to the
recorded trace. Only the tests call it today; no benchmark or fit picks
its iteration budget from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.social_graph import SocialGraph
from ..sampling.polya_gamma import sigmoid
from .result import CPDResult


@dataclass(frozen=True)
class LikelihoodReport:
    """Joint likelihood proxies for one fitted model."""

    content_log_likelihood: float
    content_tokens: int
    friendship_log_likelihood: float
    diffusion_log_likelihood: float

    @property
    def content_per_token(self) -> float:
        if self.content_tokens == 0:
            return float("nan")
        return self.content_log_likelihood / self.content_tokens


def likelihood_report(result: CPDResult, graph: SocialGraph) -> LikelihoodReport:
    """Compute the three likelihood proxies for a fitted result."""
    user_word = result.pi @ result.theta @ result.phi  # (U, W)
    log_user_word = np.log(np.maximum(user_word, 1e-300))
    content = 0.0
    tokens = 0
    for doc in graph.documents:
        if len(doc.words):
            content += float(log_user_word[doc.user_id, doc.words].sum())
            tokens += len(doc.words)

    friendship = float("nan")
    if graph.n_friendship_links:
        src = np.asarray([l.source for l in graph.friendship_links])
        tgt = np.asarray([l.target for l in graph.friendship_links])
        dots = np.einsum("ij,ij->i", result.pi[src], result.pi[tgt])
        friendship = float(np.log(np.maximum(sigmoid(dots), 1e-300)).mean())

    diffusion = float("nan")
    if graph.n_diffusion_links:
        from ..apps.diffusion_prediction import DiffusionPredictor

        predictor = DiffusionPredictor(result, graph)
        src = np.asarray([l.source_doc for l in graph.diffusion_links])
        tgt = np.asarray([l.target_doc for l in graph.diffusion_links])
        times = np.asarray([l.timestamp for l in graph.diffusion_links])
        scores = predictor.score_pairs(src, tgt, times)
        diffusion = float(np.log(np.maximum(scores, 1e-300)).mean())

    return LikelihoodReport(
        content_log_likelihood=content,
        content_tokens=tokens,
        friendship_log_likelihood=friendship,
        diffusion_log_likelihood=diffusion,
    )


@dataclass(frozen=True)
class ConvergenceAssessment:
    """Outcome of the trace window test."""

    converged: bool
    iterations_run: int
    stable_from: int | None
    final_diffusion_probability: float
    final_friendship_probability: float


def assess_convergence(
    result: CPDResult,
    window: int = 5,
    tolerance: float = 0.02,
) -> ConvergenceAssessment:
    """Window test on the recorded per-iteration link probabilities.

    The fit counts as converged when, over the last ``window`` iterations,
    the mean positive-link probabilities moved by less than ``tolerance``
    relative to their level.
    """
    trace = result.trace
    if len(trace) < window + 1:
        return ConvergenceAssessment(
            converged=False,
            iterations_run=len(trace),
            stable_from=None,
            final_diffusion_probability=trace[-1].mean_diffusion_probability if trace else float("nan"),
            final_friendship_probability=trace[-1].mean_friendship_probability if trace else float("nan"),
        )

    def _series(attribute: str) -> np.ndarray:
        return np.asarray([getattr(entry, attribute) for entry in trace])

    diffusion = _series("mean_diffusion_probability")
    friendship = _series("mean_friendship_probability")

    stable_from = None
    for start in range(len(trace) - window):
        stable = True
        for series in (diffusion, friendship):
            chunk = series[start : start + window + 1]
            if np.all(np.isnan(chunk)):
                continue
            level = np.nanmean(np.abs(chunk))
            if level > 0 and (np.nanmax(chunk) - np.nanmin(chunk)) / level > tolerance:
                stable = False
                break
        if stable:
            stable_from = start
            break

    return ConvergenceAssessment(
        converged=stable_from is not None,
        iterations_run=len(trace),
        stable_from=stable_from,
        final_diffusion_probability=float(diffusion[-1]),
        final_friendship_probability=float(friendship[-1]),
    )
