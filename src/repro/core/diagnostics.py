"""Convergence diagnostics for CPD fits.

The collapsed Gibbs sampler has no single exact objective to watch, so a
fit records cheap proxies per iteration instead: the mean positive-link
probabilities over F and E (:class:`~repro.core.result.IterationTrace`).
:func:`assess_convergence` applies a relative-change window test to that
trace. Only the tests call it today; no benchmark or fit picks its
iteration budget from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .result import CPDResult


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
    relative to their level. ``stable_from`` is the first iteration of the
    trailing run of such windows, so a trace that settles and then drifts
    again is not converged.
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

    def _stable(start: int) -> bool:
        for series in (diffusion, friendship):
            chunk = series[start : start + window + 1]
            if np.all(np.isnan(chunk)):
                continue
            level = np.nanmean(np.abs(chunk))
            if level > 0 and (np.nanmax(chunk) - np.nanmin(chunk)) / level > tolerance:
                return False
        return True

    stable_from = None
    for start in range(len(trace) - window - 1, -1, -1):
        if not _stable(start):
            break
        stable_from = start

    return ConvergenceAssessment(
        converged=stable_from is not None,
        iterations_run=len(trace),
        stable_from=stable_from,
        final_diffusion_probability=float(diffusion[-1]),
        final_friendship_probability=float(friendship[-1]),
    )
