"""Tests for the offset logistic-regression trainer."""

import numpy as np
import pytest
from scipy.optimize import minimize

from repro.diffusion import LogisticTrainer, LogisticTrainerConfig


def separable_data(rng, n=400):
    x = rng.normal(size=(n, 2))
    logits = 2.0 * x[:, 0] - 1.0 * x[:, 1] + 0.5
    labels = (rng.random(n) < 1 / (1 + np.exp(-logits))).astype(float)
    return x, labels


class TestFit:
    def test_learns_signs(self, rng):
        x, y = separable_data(rng)
        fit = LogisticTrainer(LogisticTrainerConfig(n_iterations=300)).fit(x, y)
        assert fit.weights[0] > 0.5
        assert fit.weights[1] < -0.2

    def test_predictions_discriminate(self, rng):
        x, y = separable_data(rng)
        fit = LogisticTrainer(LogisticTrainerConfig(n_iterations=300)).fit(x, y)
        probs = fit.predict_proba(x)
        assert probs[y == 1].mean() > probs[y == 0].mean() + 0.2

    def test_loss_decreases(self, rng):
        x, y = separable_data(rng)
        trainer = LogisticTrainer(LogisticTrainerConfig(n_iterations=5))
        short = trainer.fit(x, y)
        longer = LogisticTrainer(LogisticTrainerConfig(n_iterations=200)).fit(x, y)
        assert longer.final_loss <= short.final_loss

    def test_offsets_shift_logits(self, rng):
        x, y = separable_data(rng)
        fit = LogisticTrainer().fit(x, y)
        base = fit.logits(x[:3])
        shifted = fit.logits(x[:3], offsets=np.full(3, 2.0))
        np.testing.assert_allclose(shifted - base, 2.0)

    def test_offset_training_absorbs_offset(self, rng):
        """A constant positive offset on positives should reduce the bias."""
        x, y = separable_data(rng)
        offsets = 3.0 * y  # informative offset
        fit = LogisticTrainer(LogisticTrainerConfig(n_iterations=200)).fit(
            x, y, offsets=offsets
        )
        fit_no = LogisticTrainer(LogisticTrainerConfig(n_iterations=200)).fit(x, y)
        assert fit.bias < fit_no.bias

    def test_warm_start(self, rng):
        x, y = separable_data(rng)
        cold = LogisticTrainer(LogisticTrainerConfig(n_iterations=1)).fit(x, y)
        warm = LogisticTrainer(LogisticTrainerConfig(n_iterations=1)).fit(
            x, y, initial_weights=np.array([2.0, -1.0]), initial_bias=0.5
        )
        assert warm.final_loss < cold.final_loss


class TestStandardize:
    def test_scale_invariance(self, rng):
        """With standardisation, a tiny-scale feature is learned as well."""
        x, y = separable_data(rng)
        x_scaled = x.copy()
        x_scaled[:, 0] *= 1e-4
        fit = LogisticTrainer(
            LogisticTrainerConfig(n_iterations=300, standardize=True)
        ).fit(x_scaled, y)
        probs = fit.predict_proba(x_scaled)
        assert probs[y == 1].mean() > probs[y == 0].mean() + 0.2
        # folded-back raw weight must be large to compensate the tiny scale
        assert abs(fit.weights[0]) > 1e3

    def test_constant_column_is_safe(self, rng):
        x, y = separable_data(rng)
        x_const = np.column_stack([x, np.ones(len(x))])
        fit = LogisticTrainer(
            LogisticTrainerConfig(n_iterations=100, standardize=True)
        ).fit(x_const, y)
        assert np.all(np.isfinite(fit.weights))

    def test_standardized_matches_plain_predictions(self, rng):
        x, y = separable_data(rng)
        plain = LogisticTrainer(LogisticTrainerConfig(n_iterations=500)).fit(x, y)
        standardized = LogisticTrainer(
            LogisticTrainerConfig(n_iterations=500, standardize=True)
        ).fit(x, y)
        # both converge to similar decision functions
        corr = np.corrcoef(plain.logits(x), standardized.logits(x))[0, 1]
        assert corr > 0.99


def objective(x, y, offsets, weights, bias, l2_penalty, stds):
    """Mean softplus NLL plus ½λ‖w·stds‖², from raw weights and bias."""
    logits = x @ weights + bias + offsets
    nll = np.logaddexp(0.0, logits) - y * logits
    return nll.mean() + 0.5 * l2_penalty * np.sum((weights * stds) ** 2)


def raw_stds(x):
    stds = x.std(axis=0)
    return np.where(stds > 1e-8, stds, 1.0)


class TestFinalLoss:
    @pytest.mark.parametrize("standardize", [True, False])
    def test_describes_returned_weights(self, rng, standardize):
        x, y = separable_data(rng)
        x = x * np.array([3.0, 0.2]) + np.array([1.0, -2.0])
        offsets = rng.normal(scale=0.5, size=len(y))
        config = LogisticTrainerConfig(
            n_iterations=5, l2_penalty=0.05, standardize=standardize
        )
        fit = LogisticTrainer(config).fit(x, y, offsets=offsets)
        stds = raw_stds(x) if standardize else np.ones(x.shape[1])
        expected = objective(x, y, offsets, fit.weights, fit.bias, 0.05, stds)
        assert fit.final_loss == pytest.approx(expected, abs=1e-12, rel=0)


class TestDegenerate:
    @pytest.mark.parametrize("standardize", [True, False])
    def test_unpenalised_constant_column(self, rng, standardize):
        """No penalty plus a constant column makes the Hessian singular."""
        x, y = separable_data(rng)
        x_const = np.column_stack([x, np.full(len(x), 2.0)])
        fit = LogisticTrainer(
            LogisticTrainerConfig(l2_penalty=0.0, standardize=standardize)
        ).fit(x_const, y)
        assert np.all(np.isfinite(fit.weights)) and np.isfinite(fit.bias)
        assert fit.final_loss <= np.log(2.0)  # the loss at the zero start


def constrained_problem(rng, n=600):
    """Offsets, mixed feature scales, and a negative truth for feature 1."""
    x = rng.normal(size=(n, 3)) * np.array([2.0, 0.05, 10.0]) + np.array([1.0, 0.0, -3.0])
    offsets = rng.normal(scale=0.7, size=n)
    logits = 1.2 * x[:, 0] - 30.0 * x[:, 1] + 0.05 * x[:, 2] + offsets - 0.4
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    return x, y, offsets


class TestOptimality:
    """Projected Newton must reach the constrained optimum, not just descend."""

    l2_penalty = 1e-2
    config = LogisticTrainerConfig(
        l2_penalty=l2_penalty, standardize=True, nonnegative=(0, 1)
    )

    def standardised(self, x):
        means, stds = x.mean(axis=0), raw_stds(x)
        return np.column_stack([(x - means) / stds, np.ones(len(x))]), means, stds

    def test_feature_1_optimum_is_negative_unconstrained(self, rng):
        x, y, offsets = constrained_problem(rng)
        free = LogisticTrainerConfig(l2_penalty=self.l2_penalty, standardize=True)
        assert LogisticTrainer(free).fit(x, y, offsets=offsets).weights[1] < 0.0

    def test_kkt_conditions_hold(self, rng):
        x, y, offsets = constrained_problem(rng)
        fit = LogisticTrainer(self.config).fit(x, y, offsets=offsets)
        design, means, stds = self.standardised(x)
        params = np.append(fit.weights * stds, fit.bias + fit.weights @ means)
        probabilities = 1.0 / (1.0 + np.exp(-(design @ params + offsets)))
        penalty = np.array([self.l2_penalty] * 3 + [0.0])
        gradient = design.T @ (probabilities - y) / len(y) + penalty * params
        at_bound = np.zeros(4, dtype=bool)
        at_bound[[0, 1]] = params[[0, 1]] <= 0.0
        assert at_bound[1] and not at_bound[0]
        assert np.all(np.abs(gradient[~at_bound]) < 1e-6)
        assert np.all(gradient[at_bound] >= -1e-8)

    def test_matches_bounded_lbfgs(self, rng):
        x, y, offsets = constrained_problem(rng)
        fit = LogisticTrainer(self.config).fit(x, y, offsets=offsets)
        design, _, _ = self.standardised(x)
        penalty = np.array([self.l2_penalty] * 3 + [0.0])

        def loss_and_grad(params):
            logits = design @ params + offsets
            nll = np.logaddexp(0.0, logits) - y * logits
            probabilities = 1.0 / (1.0 + np.exp(-logits))
            gradient = design.T @ (probabilities - y) / len(y) + penalty * params
            return nll.mean() + 0.5 * penalty @ (params * params), gradient

        reference = minimize(
            loss_and_grad,
            np.zeros(4),
            jac=True,
            method="L-BFGS-B",
            bounds=[(0.0, None), (0.0, None), (None, None), (None, None)],
            options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10_000},
        )
        assert fit.final_loss == pytest.approx(reference.fun, abs=1e-8, rel=0)

    def test_converges_in_few_steps(self, rng):
        x, y, offsets = constrained_problem(rng)
        fit = LogisticTrainer(self.config).fit(x, y, offsets=offsets)
        assert fit.n_iterations <= 10


class TestNonnegative:
    def test_projection_enforced(self, rng):
        x, y = separable_data(rng)
        # feature 1 truly has a negative weight; projection pins it at >= 0
        fit = LogisticTrainer(
            LogisticTrainerConfig(n_iterations=200, nonnegative=(1,))
        ).fit(x, y)
        assert fit.weights[1] >= 0.0
        assert fit.weights[0] > 0.0


class TestValidation:
    def test_rejects_non_binary_labels(self, rng):
        with pytest.raises(ValueError):
            LogisticTrainer().fit(np.ones((3, 1)), np.array([0.0, 0.5, 1.0]))

    def test_rejects_misaligned(self, rng):
        with pytest.raises(ValueError):
            LogisticTrainer().fit(np.ones((3, 1)), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            LogisticTrainer().fit(
                np.ones((2, 1)), np.array([0.0, 1.0]), offsets=np.zeros(3)
            )

    def test_rejects_1d_features(self):
        with pytest.raises(ValueError):
            LogisticTrainer().fit(np.ones(3), np.array([0.0, 1.0, 0.0]))

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            LogisticTrainer(LogisticTrainerConfig(n_iterations=0))

    def test_rejects_negative_penalty(self):
        # a negative L2 penalty makes the objective non-convex
        with pytest.raises(ValueError, match="l2_penalty"):
            LogisticTrainer(LogisticTrainerConfig(l2_penalty=-1e-3))
