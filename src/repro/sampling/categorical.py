"""Categorical sampling from unnormalised weights or log-weights.

The collapsed Gibbs sampler draws one topic and one community per document
per sweep, so these helpers are on the hot path. They avoid building
normalised distributions when a cumulative-sum inverse draw suffices.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import RngLike, ensure_rng


def sample_categorical(weights: np.ndarray, rng: RngLike = None) -> int:
    """Draw an index proportionally to non-negative ``weights``.

    Raises ``ValueError`` if the weights are all zero, contain negatives, or
    are not finite — silent fallbacks here would mask sampler bugs.
    """
    generator = ensure_rng(rng)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1:
        raise ValueError("weights must be one-dimensional")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("weights must not all be zero")
    cumulative = np.cumsum(weights)
    draw = generator.random() * total
    index = int(np.searchsorted(cumulative, draw, side="right").clip(0, len(weights) - 1))
    # ``draw`` can round up to ``total`` (e.g. denormal weights), overflowing
    # past the last positive-weight outcome; walk back so a zero-weight
    # outcome is never drawn
    while index > 0 and weights[index] == 0.0:
        index -= 1
    return index


def sample_log_categorical(log_weights: np.ndarray, rng: RngLike = None) -> int:
    """Draw an index proportionally to ``exp(log_weights)``, stably.

    The maximum log-weight is subtracted before exponentiation so the Gibbs
    conditionals — products of many link factors — never underflow.
    """
    log_weights = np.asarray(log_weights, dtype=np.float64)
    if log_weights.ndim != 1:
        raise ValueError("log_weights must be one-dimensional")
    if np.all(np.isneginf(log_weights)):
        raise ValueError("all log-weights are -inf")
    shifted = log_weights - np.max(log_weights[np.isfinite(log_weights)])
    weights = np.exp(shifted, where=np.isfinite(shifted), out=np.zeros_like(shifted))
    return sample_categorical(weights, rng)


def sample_many_categorical(weight_rows: np.ndarray, rng: RngLike = None) -> np.ndarray:
    """Vectorised draw of one index per row of ``weight_rows``."""
    generator = ensure_rng(rng)
    weight_rows = np.asarray(weight_rows, dtype=np.float64)
    if weight_rows.ndim != 2:
        raise ValueError("weight_rows must be two-dimensional")
    totals = weight_rows.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("every row needs positive total weight")
    cumulative = np.cumsum(weight_rows, axis=1)
    draws = generator.random(size=(weight_rows.shape[0], 1)) * totals
    indices = (cumulative < draws).sum(axis=1)
    return np.clip(indices, 0, weight_rows.shape[1] - 1)


def draw_log_categorical_from_uniform(log_weights: np.ndarray, uniform: float) -> int:
    """A log-categorical draw as a pure function of one uniform draw.

    This is the draw contract the compiled sweep kernel implements in C
    (``cpd_draw_log_categorical``): shift by the maximum, accumulate
    ``exp`` terms sequentially, return the first index whose cumulative
    bound strictly exceeds ``uniform * total``, walking back over trailing
    zero-weight outcomes if the scaled uniform rounds up to the total. It
    consumes one uniform, like :func:`sample_log_categorical`, which the
    reference kernel draws with — the property the cross-language parity
    tests pin.
    """
    values = [float(value) for value in log_weights]
    shift = max(values)
    total = 0.0
    cumulative = []
    for value in values:
        total += math.exp(value - shift)
        cumulative.append(total)
    draw = uniform * total
    for index, bound in enumerate(cumulative):
        if bound > draw:
            return index
    index = len(values) - 1
    while index > 0 and cumulative[index] == cumulative[index - 1]:
        index -= 1
    return index


def sample_many_log_categorical(
    log_weight_rows: np.ndarray, rng: RngLike = None
) -> np.ndarray:
    """Vectorised draw of one index per row of ``log_weight_rows``, stably.

    The row-wise maximum over finite entries is subtracted before
    exponentiation, mirroring :func:`sample_log_categorical`; ``-inf``
    entries get zero weight, a row of all ``-inf`` raises.
    """
    generator = ensure_rng(rng)
    rows = np.asarray(log_weight_rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("log_weight_rows must be two-dimensional")
    finite = np.isfinite(rows)
    if not np.all(finite.any(axis=1)):
        raise ValueError("every row needs at least one finite log-weight")
    row_max = np.max(np.where(finite, rows, -np.inf), axis=1, keepdims=True)
    shifted = rows - row_max
    finite_shifted = np.isfinite(shifted)
    weights = np.exp(shifted, where=finite_shifted, out=np.zeros_like(shifted))
    return sample_many_categorical(weights, generator)


def normalize(weights: np.ndarray, axis: int = -1) -> np.ndarray:
    """Return ``weights`` normalised to sum to one along ``axis``.

    Zero-sum slices become uniform distributions rather than NaNs, which is
    the behaviour profile estimators need for never-sampled communities.
    """
    weights = np.asarray(weights, dtype=np.float64)
    totals = weights.sum(axis=axis, keepdims=True)
    size = weights.shape[axis]
    uniform = np.full_like(weights, 1.0 / size)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(totals > 0, weights / np.where(totals > 0, totals, 1.0), uniform)
    return out


def log_normalize(log_weights: np.ndarray, axis: int = -1) -> np.ndarray:
    """Return normalised probabilities for ``exp(log_weights)`` along ``axis``."""
    log_weights = np.asarray(log_weights, dtype=np.float64)
    shifted = log_weights - np.max(log_weights, axis=axis, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=axis, keepdims=True)
