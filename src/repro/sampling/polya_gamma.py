"""Pólya-Gamma random variables for sigmoid-likelihood data augmentation.

CPD models friendship links (Eq. 3) and diffusion links (Eq. 5) through
sigmoid functions, which makes the collapsed Gibbs conditionals intractable.
Following Polson, Scott & Windle (2013) — reference [28] of the paper — the
sigmoid is rewritten as a Gaussian mixture against a Pólya-Gamma density
(paper Eq. 7), and the augmented variables ``lambda_uv`` / ``delta_ij`` are
drawn from their PG(1, c) conditionals (paper Eqs. 15-16).

Both samplers are exact, Devroye's alternating-series method on the
exponentially tilted Jacobi density, the method the paper cites:

* :func:`sample_pg1` — the scalar sampler, kept as the executable spec.
* :func:`sample_pg_array` — the same algorithm over a link array, fed from
  fixed uniform blocks. Every read is one uniform: exponentials are
  ``-log1p(-u)`` and the inverse-Gaussian body's chi-square is Box-Muller
  ``2 e cos^2(2 pi u)``. Each pending link gets :data:`_SLOTS` uniforms per
  round; links that do not finish go to a refill round of
  ``len(pending) x _SLOTS`` new uniforms. A link that runs out of slots
  keeps its branch (tail or body) and redraws that branch's proposal, so
  the abandoned partial draw never biases the mixture. The compiled
  sampler (``cpd_pg1_draw``, DESIGN.md §10) runs every round in one C
  call that reads the Generator's bit generator directly, in the order
  the numpy rounds here read their blocks, so matched seeds give equal
  draws and leave the Generator in the same state on either backend.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import RngLike, ensure_rng

#: Devroye's crossover point between the inverse-Gaussian body and the
#: exponential tail of the Jacobi proposal.
_TRUNC = 0.64
_PI_SQ = math.pi * math.pi
#: uniforms a pending link may read per round of :func:`sample_pg_array`;
#: a link with a carried branch needs at most 4 to finish a proposal
_SLOTS = 8

# per-link phases of the array sampler; every phase reads one uniform
(
    _BRANCH, _TAIL, _CHI_E1, _CHI_E2, _CHI_ACCEPT,
    _IG_E, _IG_Y, _IG_FLIP, _SERIES, _DONE,
) = range(10)


def pg_mean(b: float, z: float) -> float:
    """Mean of PG(b, z): ``b/(2z) * tanh(z/2)``, with the ``z -> 0`` limit ``b/4``."""
    if b <= 0:
        raise ValueError("shape b must be positive")
    z = abs(z)
    if z < 1e-8:
        # tanh(z/2)/(2z) -> 1/4 - z^2/48 + O(z^4)
        return b * (0.25 - z * z / 48.0)
    return b * math.tanh(z / 2.0) / (2.0 * z)


def pg_variance(b: float, z: float) -> float:
    """Variance of PG(b, z), with the ``z -> 0`` limit ``b/24``.

    ``(sinh z - z) / (4 z^3 cosh^2(z/2))``, rewritten with
    ``sinh z / cosh^2(z/2) = 2 tanh(z/2)`` so it stays finite for large z.
    """
    if b <= 0:
        raise ValueError("shape b must be positive")
    z = abs(z)
    if z < 1e-4:
        return b / 24.0
    sech_half = 2.0 * math.exp(-z / 2.0) / (1.0 + math.exp(-z))
    return b * (2.0 * math.tanh(z / 2.0) - z * sech_half**2) / (4.0 * z**3)


def _a_coef(n: int, x: float) -> float:
    """Devroye's alternating-series coefficients ``a_n(x)`` (piecewise in x)."""
    if x > _TRUNC:
        return math.pi * (n + 0.5) * math.exp(-((n + 0.5) ** 2) * math.pi**2 * x / 2.0)
    return (
        math.pi
        * (n + 0.5)
        * (2.0 / (math.pi * x)) ** 1.5
        * math.exp(-2.0 * (n + 0.5) ** 2 / x)
    )


def _mass_texpon(z):
    """Probability mass of the exponential branch of the Jacobi proposal.

    Both log terms grow like ``0.32 z^2``, so they are combined with
    ``logaddexp`` and mapped through ``expit``; exponentiating them
    overflows for ``z`` above ~48. Works on scalars and arrays.
    """
    # deferred (DESIGN.md §14): the compiled round computes this mass in C
    from scipy.special import expit, log_ndtr

    t = _TRUNC
    fz = _PI_SQ / 8.0 + 0.5 * z * z
    x0 = np.log(fz) + fz * t
    log_right = x0 - z + log_ndtr((t * z - 1.0) / math.sqrt(t))
    log_left = x0 + z + log_ndtr(-(t * z + 1.0) / math.sqrt(t))
    return expit(-(math.log(4.0 / math.pi) + np.logaddexp(log_right, log_left)))


def _sample_truncated_inverse_gaussian(z: float, rng: np.random.Generator) -> float:
    """Draw IG(mu=1/z, lambda=1) restricted to ``(0, _TRUNC)`` (Devroye)."""
    t = _TRUNC
    z = abs(z)
    if z < 1.0 / t:
        # mean above the truncation point: rejection from the chi-based proposal
        while True:
            e1 = rng.exponential()
            e2 = rng.exponential()
            while e1 * e1 > 2.0 * e2 / t:
                e1 = rng.exponential()
                e2 = rng.exponential()
            x = t / (1.0 + t * e1) ** 2
            if rng.random() <= math.exp(-0.5 * z * z * x):
                return x
    mu = 1.0 / z
    while True:
        y = rng.normal() ** 2
        mu_y = mu * y
        x = mu + 0.5 * mu * mu_y - 0.5 * mu * math.sqrt(4.0 * mu_y + mu_y * mu_y)
        if rng.random() > mu / (mu + x):
            x = mu * mu / x
        if x <= t:
            return x


def sample_pg1(z: float, rng: RngLike = None) -> float:
    """Exact draw from PG(1, z) via Devroye's alternating-series method.

    ``PG(1, z)`` equals one quarter of a Jacobi variable tilted by
    ``cosh(z/2)``; the proposal mixes a truncated inverse-Gaussian body with
    an exponential tail, and the alternating partial sums of ``a_n``
    squeeze-accept the draw.
    """
    generator = ensure_rng(rng)
    half_z = abs(z) * 0.5
    fz = math.pi**2 / 8.0 + half_z * half_z / 2.0
    prob_exponential = float(_mass_texpon(half_z))
    while True:
        if generator.random() < prob_exponential:
            x = _TRUNC + generator.exponential() / fz
        else:
            x = _sample_truncated_inverse_gaussian(half_z, generator)
        series = _a_coef(0, x)
        threshold = generator.random() * series
        n = 0
        while True:
            n += 1
            if n % 2 == 1:
                series -= _a_coef(n, x)
                if threshold <= series:
                    return 0.25 * x
            else:
                series += _a_coef(n, x)
                if threshold > series:
                    break  # reject this proposal, draw a new one


def sample_pg(b: int, z: float, rng: RngLike = None) -> float:
    """Draw from PG(b, z) for integer ``b``: a sum of ``b`` exact PG(1, z) draws.

    Uses the compiled round when the backend loads; the draws equal the
    numpy round's to rounding either way.
    """
    if b < 1 or int(b) != b:
        raise ValueError("b must be a positive integer")
    generator = ensure_rng(rng)
    return float(sample_pg_array(np.full(int(b), float(z)), generator, compiled=True).sum())


def _coef_array(n: int, x: np.ndarray) -> np.ndarray:
    """``a_n(x)`` over an array, the body branch in log space (``cpd_pg1_draw``)."""
    k = n + 0.5
    tail = math.pi * k * np.exp(-k * k * _PI_SQ * x / 2.0)
    body = math.pi * k * np.exp(1.5 * np.log(2.0 / (math.pi * x)) - 2.0 * k * k / x)
    return np.where(x > _TRUNC, tail, body)


def _series_accepts(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Devroye's alternating-series squeeze for proposals ``x``, uniforms ``u``."""
    series = _coef_array(0, x)
    threshold = u * series
    accept = np.zeros(x.shape[0], dtype=bool)
    undecided = np.arange(x.shape[0])
    n = 0
    while undecided.size:
        n += 1
        coef = _coef_array(n, x[undecided])
        if n % 2 == 1:
            series[undecided] -= coef
            decided = threshold[undecided] <= series[undecided]
            accept[undecided[decided]] = True
        else:
            series[undecided] += coef
            decided = threshold[undecided] > series[undecided]
        undecided = undecided[~decided]
    return accept


def _pg1_round(
    z: np.ndarray,
    pending: np.ndarray,
    branch: np.ndarray,
    out: np.ndarray,
    uniforms: np.ndarray,
) -> int:
    """One refill round of :func:`sample_pg_array` in numpy, in place.

    Link ``pending[i]`` reads ``uniforms[i]`` left to right, one uniform per
    phase, exactly as ``cpd_pg1_draw`` does; ``uniforms`` has one row for each
    of the first ``len(uniforms)`` entries of ``pending``. Accepted draws
    land in ``out``; the links still pending are compacted to the front of
    ``pending`` with their branch (0 none, 1 tail, 2 body) in ``branch``.
    Returns their count.
    """
    pending = pending[: uniforms.shape[0]]
    h = 0.5 * np.abs(z[pending])
    fz = _PI_SQ / 8.0 + 0.5 * h * h
    chi = h < 1.0 / _TRUNC
    mu = np.divide(1.0, h, out=np.zeros(h.shape), where=~chi)
    p_tail = _mass_texpon(h)
    b = branch[pending]
    body_start = np.where(chi, _CHI_E1, _IG_E)
    phase = np.select([b == 0, b == 1], [_BRANCH, _TAIL], body_start)
    x = np.zeros(h.shape)
    draw = np.zeros(h.shape)  # the pending exponential of a two-read step
    for column in uniforms.T:
        current = phase.copy()
        counts = np.bincount(current, minlength=_DONE + 1)
        if counts[_DONE] == current.size:
            break
        if counts[_BRANCH]:
            i = np.flatnonzero(current == _BRANCH)
            tail = column[i] < p_tail[i]
            b[i] = np.where(tail, 1, 2)
            phase[i] = np.where(tail, _TAIL, body_start[i])
        if counts[_TAIL]:
            i = np.flatnonzero(current == _TAIL)
            x[i] = _TRUNC + -np.log1p(-column[i]) / fz[i]
            phase[i] = _SERIES
        if counts[_CHI_E1] + counts[_IG_E]:
            i = np.flatnonzero((current == _CHI_E1) | (current == _IG_E))
            draw[i] = -np.log1p(-column[i])
            phase[i] = current[i] + 1  # _CHI_E2 / _IG_Y
        if counts[_CHI_E2]:
            i = np.flatnonzero(current == _CHI_E2)
            e1 = draw[i]
            d = 1.0 + _TRUNC * e1
            x[i] = _TRUNC / (d * d)
            ok = e1 * e1 <= 2.0 * -np.log1p(-column[i]) / _TRUNC
            phase[i] = np.where(ok, _CHI_ACCEPT, _CHI_E1)
        if counts[_CHI_ACCEPT]:
            i = np.flatnonzero(current == _CHI_ACCEPT)
            ok = column[i] <= np.exp(-0.5 * h[i] * h[i] * x[i])
            phase[i] = np.where(ok, _SERIES, _CHI_E1)
        if counts[_IG_Y]:
            i = np.flatnonzero(current == _IG_Y)
            c = np.cos(2.0 * math.pi * column[i])
            a = 0.5 * mu[i] * (2.0 * draw[i] * c * c)
            x[i] = mu[i] / (1.0 + a + np.sqrt(a * a + 2.0 * a))
            phase[i] = _IG_FLIP
        if counts[_IG_FLIP]:
            i = np.flatnonzero(current == _IG_FLIP)
            m = mu[i]
            flip = column[i] > m / (m + x[i])
            x[i] = np.where(flip, m * m / x[i], x[i])
            phase[i] = np.where(x[i] <= _TRUNC, _SERIES, _IG_E)
        if counts[_SERIES]:
            i = np.flatnonzero(current == _SERIES)
            ok = _series_accepts(x[i], column[i])
            out[pending[i[ok]]] = 0.25 * x[i[ok]]
            phase[i] = np.where(ok, _DONE, _BRANCH)
            b[i[~ok]] = 0
    left = phase != _DONE
    kept = int(left.sum())
    branch[pending[left]] = b[left]
    pending[:kept] = pending[left]
    return kept


def sample_pg_array(
    z: np.ndarray,
    rng: RngLike = None,
    compiled: bool = False,
) -> np.ndarray:
    """Exact PG(1, z_i) draws for every entry of ``z`` (Devroye, vectorised).

    Draws come in rounds: every pending link reads :data:`_SLOTS` uniforms
    of one ``rng.random((len(pending), _SLOTS))`` block, and the links that
    do not finish wait for the next block (see the module docstring). With
    ``compiled=True`` every round runs in one C call (``cpd_pg1_draw``,
    DESIGN.md §10) when the backend loads, else in numpy; C reads the
    uniforms from the Generator's bit generator in the blocks' order, so
    the draws agree to rounding and the Generator ends in the same state.
    Raises ``ValueError`` for non-finite ``z``.
    """
    generator = ensure_rng(rng)
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if not np.isfinite(z).all():
        raise ValueError("Pólya-Gamma tilt z must be finite")
    flat = np.ascontiguousarray(z).reshape(-1)
    if compiled:
        # deferred import: repro.core pulls this module in at package import
        from ..core import _compiled

        try:
            return _compiled.pg1_draws(flat, _SLOTS, generator).reshape(z.shape)
        except _compiled.CompiledBackendUnavailable:
            pass
    out = np.empty(flat.shape[0])
    branch = np.zeros(flat.shape[0], dtype=np.int8)
    pending = np.arange(flat.shape[0], dtype=np.int64)
    n_pending = flat.shape[0]
    while n_pending:
        n_pending = _pg1_round(
            flat, pending, branch, out, generator.random((n_pending, _SLOTS))
        )
    return out.reshape(z.shape)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function ``1 / (1 + exp(-x))``.

    One ``e = exp(-|x|)``, then ``1 / (1 + e)`` for ``x >= 0`` and
    ``e / (1 + e)`` below, the form the compiled Newton solver uses.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.empty_like(x)
    np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)
    return out


def log_psi(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Log of the mixture kernel ``psi(w, x) = exp(w/2 - x w^2 / 2)`` (Eq. 7).

    ``psi`` is the Gaussian factor of the Pólya-Gamma mixture representation
    of the sigmoid; the Gibbs conditionals for topics and communities
    (Eqs. 13-14) multiply one ``psi`` per incident link.
    """
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * w - 0.5 * x * w * w
