"""Geweke "getting it right" test for the Pólya-Gamma augmentation.

A tiny Bayesian logistic regression exercises the same augmentation CPD's
link factors use (paper Eqs. 7, 15-16): ``beta ~ N(0, s^2 I)``,
``y_i ~ Bernoulli(sigmoid(x_i . beta))``. The successive-conditional
simulator alternates ``omega ~ PG(1, X beta)`` (through
:func:`sample_pg_array`), ``beta | omega, y`` Gaussian, and a fresh ``y``
from the likelihood. If every conditional is right, the joint prior is
invariant, so chains started from prior draws keep ``beta`` at its prior
moments at every step (Geweke 2004, JASA; Grosse & Duvenaud 2014).

Chains run side by side: per-chain time averages are i.i.d. across chains,
which gives honest standard errors without autocorrelation corrections.
A sampler whose draws are 20% too large fails the same check.
"""

import numpy as np
import pytest

from repro.sampling import sample_pg_array, sigmoid

DESIGN = np.array(
    [[1.0, -0.5], [1.0, 1.0], [1.0, 2.0], [-1.0, 0.5], [0.5, -1.5]]
)
PRIOR_SD = 1.5
#: a |z| above this fails the check; the statistic is ~N(0, 1) per moment
Z_LIMIT = 4.5


def _moment_z_scores(draw_pg, n_chains=2000, n_steps=30, seed=0):
    """z-scores of beta's moments under the chain against the prior's."""
    rng = np.random.default_rng(seed)
    n_obs, dim = DESIGN.shape
    beta = rng.normal(0.0, PRIOR_SD, (n_chains, dim))
    y = rng.random((n_chains, n_obs)) < sigmoid(beta @ DESIGN.T)
    prior_precision = np.eye(dim) / PRIOR_SD**2
    sums = np.zeros((n_chains, 5))
    for _ in range(n_steps):
        omega = draw_pg(beta @ DESIGN.T, rng)
        precision = np.einsum("kn,ni,nj->kij", omega, DESIGN, DESIGN) + prior_precision
        covariance = np.linalg.inv(precision)
        mean = np.einsum("kij,kj->ki", covariance, (y - 0.5) @ DESIGN)
        noise = rng.normal(size=(n_chains, dim))
        beta = mean + np.einsum("kij,kj->ki", np.linalg.cholesky(covariance), noise)
        y = rng.random((n_chains, n_obs)) < sigmoid(beta @ DESIGN.T)
        sums += np.column_stack(
            [beta[:, 0], beta[:, 1], beta[:, 0] ** 2, beta[:, 1] ** 2, beta[:, 0] * beta[:, 1]]
        )
    per_chain = sums / n_steps
    prior = np.array([0.0, 0.0, PRIOR_SD**2, PRIOR_SD**2, 0.0])
    standard_error = per_chain.std(axis=0, ddof=1) / np.sqrt(n_chains)
    return (per_chain.mean(axis=0) - prior) / standard_error


@pytest.mark.parametrize("compiled", [False, True], ids=["numpy", "compiled"])
def test_augmented_chain_keeps_the_prior(compiled):
    scores = _moment_z_scores(lambda z, rng: sample_pg_array(z, rng, compiled=compiled))
    assert np.all(np.abs(scores) < Z_LIMIT), scores


def test_scaled_draws_fail_the_check():
    """The check has teeth: PG draws 1.2x too large shrink beta's spread."""
    scores = _moment_z_scores(lambda z, rng: 1.2 * sample_pg_array(z, rng))
    assert np.max(np.abs(scores)) > Z_LIMIT, scores
