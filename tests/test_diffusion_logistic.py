"""Tests for the logistic-regression trainer behind the nu M-step.

The behaviour tests run on the numpy loop (the spec) and, through the
``*Compiled`` subclasses at the bottom, on ``fit(..., compiled=True)``:
the C solver when the backend loads, else the same numpy loop.
"""

import functools

import numpy as np
import pytest
from scipy.optimize import minimize

from repro.core import _compiled
from repro.diffusion import LogisticTrainer, LogisticTrainerConfig

needs_backend = pytest.mark.skipif(
    not _compiled.backend_status()[0], reason="compiled backend unavailable"
)


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
        fit = LogisticTrainer(LogisticTrainerConfig(n_iterations=300)).fit(x_scaled, y)
        probs = fit.predict_proba(x_scaled)
        assert probs[y == 1].mean() > probs[y == 0].mean() + 0.2
        # folded-back raw weight must be large to compensate the tiny scale
        assert abs(fit.weights[0]) > 1e3

    def test_constant_column_is_safe(self, rng):
        x, y = separable_data(rng)
        x_const = np.column_stack([x, np.ones(len(x))])
        fit = LogisticTrainer(LogisticTrainerConfig(n_iterations=100)).fit(x_const, y)
        assert np.all(np.isfinite(fit.weights))


def objective(x, y, weights, bias, l2_penalty, stds):
    """Mean softplus NLL plus ½λ‖w·stds‖², from raw weights and bias."""
    logits = x @ weights + bias
    nll = np.logaddexp(0.0, logits) - y * logits
    return nll.mean() + 0.5 * l2_penalty * np.sum((weights * stds) ** 2)


def raw_stds(x):
    stds = x.std(axis=0)
    return np.where(stds > 1e-8, stds, 1.0)


class TestFinalLoss:
    def test_describes_returned_weights(self, rng):
        x, y = separable_data(rng)
        x = x * np.array([3.0, 0.2]) + np.array([1.0, -2.0])
        config = LogisticTrainerConfig(n_iterations=5, l2_penalty=0.05)
        fit = LogisticTrainer(config).fit(x, y)
        expected = objective(x, y, fit.weights, fit.bias, 0.05, raw_stds(x))
        assert fit.final_loss == pytest.approx(expected, abs=1e-12, rel=0)


class TestDegenerate:
    def test_unpenalised_constant_column(self, rng):
        """No penalty plus a constant column makes the Hessian singular."""
        x, y = separable_data(rng)
        x_const = np.column_stack([x, np.full(len(x), 2.0)])
        fit = LogisticTrainer(LogisticTrainerConfig(l2_penalty=0.0)).fit(x_const, y)
        assert np.all(np.isfinite(fit.weights)) and np.isfinite(fit.bias)
        assert fit.final_loss <= np.log(2.0)  # the loss at the zero start


def constrained_problem(rng, n=600):
    """Mixed feature scales and a negative truth for feature 1."""
    x = rng.normal(size=(n, 3)) * np.array([2.0, 0.05, 10.0]) + np.array([1.0, 0.0, -3.0])
    logits = 1.2 * x[:, 0] - 30.0 * x[:, 1] + 0.05 * x[:, 2] - 0.4
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    return x, y


class TestOptimality:
    """Projected Newton must reach the constrained optimum, not just descend."""

    l2_penalty = 1e-2
    config = LogisticTrainerConfig(l2_penalty=l2_penalty, nonnegative=(0, 1))

    def standardised(self, x):
        means, stds = x.mean(axis=0), raw_stds(x)
        return np.column_stack([(x - means) / stds, np.ones(len(x))]), means, stds

    def test_feature_1_optimum_is_negative_unconstrained(self, rng):
        x, y = constrained_problem(rng)
        free = LogisticTrainerConfig(l2_penalty=self.l2_penalty)
        assert LogisticTrainer(free).fit(x, y).weights[1] < 0.0

    def test_kkt_conditions_hold(self, rng):
        x, y = constrained_problem(rng)
        fit = LogisticTrainer(self.config).fit(x, y)
        design, means, stds = self.standardised(x)
        params = np.append(fit.weights * stds, fit.bias + fit.weights @ means)
        probabilities = 1.0 / (1.0 + np.exp(-(design @ params)))
        penalty = np.array([self.l2_penalty] * 3 + [0.0])
        gradient = design.T @ (probabilities - y) / len(y) + penalty * params
        at_bound = np.zeros(4, dtype=bool)
        at_bound[[0, 1]] = params[[0, 1]] <= 0.0
        assert at_bound[1] and not at_bound[0]
        assert np.all(np.abs(gradient[~at_bound]) < 1e-6)
        assert np.all(gradient[at_bound] >= -1e-8)

    def test_matches_bounded_lbfgs(self, rng):
        x, y = constrained_problem(rng)
        fit = LogisticTrainer(self.config).fit(x, y)
        design, _, _ = self.standardised(x)
        penalty = np.array([self.l2_penalty] * 3 + [0.0])

        def loss_and_grad(params):
            logits = design @ params
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
        x, y = constrained_problem(rng)
        fit = LogisticTrainer(self.config).fit(x, y)
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


# ----------------------------------------------------------- compiled path


class CompiledPath:
    """Mixin: rerun a test class with every fit on ``compiled=True``. Passes
    without a backend too, where the compiled path is the numpy loop."""

    @pytest.fixture(autouse=True)
    def _compiled_fits(self, monkeypatch):
        fit = functools.partialmethod(LogisticTrainer.fit, compiled=True)
        monkeypatch.setattr(LogisticTrainer, "fit", fit)


class TestFitCompiled(CompiledPath, TestFit):
    pass


class TestStandardizeCompiled(CompiledPath, TestStandardize):
    pass


class TestFinalLossCompiled(CompiledPath, TestFinalLoss):
    pass


class TestDegenerateCompiled(CompiledPath, TestDegenerate):
    pass


class TestOptimalityCompiled(CompiledPath, TestOptimality):
    pass


class TestNonnegativeCompiled(CompiledPath, TestNonnegative):
    pass


class TestValidationCompiled(CompiledPath, TestValidation):
    pass


def correlated_problem(rng, n=500):
    """Feature 1 is feature 0 plus noise with a negative truth, so a Newton
    step from a non-negative start pushes it below 0 (an active-set
    re-solve)."""
    x0 = rng.normal(size=n)
    x = np.column_stack([x0, x0 + 0.3 * rng.normal(size=n), rng.normal(size=n)])
    logits = 2.0 * x0 - 0.5 * x[:, 1] + 0.3 * x[:, 2]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    return x, y


@needs_backend
class TestCompiledParity:
    """The C solver takes the numpy loop's steps: the same step count,
    weights and bias to 1e-10 relative, the loss to 1e-12."""

    def assert_same(self, config, x, y, **kwargs):
        trainer = LogisticTrainer(config)
        spec = trainer.fit(x, y, **kwargs)
        compiled = trainer.fit(x, y, compiled=True, **kwargs)
        assert compiled.n_iterations == spec.n_iterations
        np.testing.assert_allclose(compiled.weights, spec.weights, rtol=1e-10, atol=0)
        assert compiled.bias == pytest.approx(spec.bias, rel=1e-10, abs=0)
        assert compiled.final_loss == pytest.approx(spec.final_loss, rel=0, abs=1e-12)
        return spec

    @pytest.mark.parametrize("seed", range(12))
    def test_random_problems(self, seed):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(60, 700)), int(rng.integers(1, 7))
        x = rng.normal(size=(n, p)) * rng.uniform(0.1, 5.0, p) + rng.normal(size=p)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(x @ rng.normal(size=p) + rng.normal()))))
        config = LogisticTrainerConfig(
            l2_penalty=float(rng.choice([0.0, 1e-3, 1e-2])),
            nonnegative=tuple(range(0, p, 2)),
        )
        initial = rng.normal(size=p) if seed % 4 == 0 else None
        self.assert_same(
            config, x, y.astype(float),
            initial_weights=initial, initial_bias=float(rng.normal()),
        )

    def test_active_set_resolve(self, rng, monkeypatch):
        x, y = correlated_problem(rng)
        solves = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(
            np.linalg, "lstsq", lambda *a, **k: solves.append(1) or lstsq(*a, **k)
        )
        config = LogisticTrainerConfig(l2_penalty=1e-3, nonnegative=(1,))
        spec = self.assert_same(config, x, y, initial_weights=np.zeros(3))
        # only the spec calls lstsq: more solves than steps is a re-solve
        assert len(solves) > spec.n_iterations
        assert spec.weights[1] == 0.0

    def test_warm_start_with_a_clamped_negative_start(self, rng):
        x, y = constrained_problem(rng)
        config = LogisticTrainerConfig(nonnegative=(0, 1))
        # the -2.0 start of a clamped weight is projected to 0 before step 1
        self.assert_same(
            config, x, y, initial_weights=np.array([1.0, -2.0, 0.1]), initial_bias=0.7
        )

    def test_singular_hessian_runs_the_numpy_loop(self, rng, monkeypatch):
        """test_unpenalised_constant_column's setup: the C solve declines
        and the numpy loop (the only caller of ``_loss``) produces the fit."""
        x, y = separable_data(rng)
        x_const = np.column_stack([x, np.full(len(x), 2.0)])
        declined, losses = [], []
        solve, loss = _compiled.logistic_newton, LogisticTrainer._loss

        def spy_solve(*args, **kwargs):
            declined.append(solve(*args, **kwargs) is None)
            return None if declined[-1] else solve(*args, **kwargs)

        def spy_loss(*args):
            losses.append(1)
            return loss(*args)

        monkeypatch.setattr(_compiled, "logistic_newton", spy_solve)
        monkeypatch.setattr(LogisticTrainer, "_loss", staticmethod(spy_loss))
        config = LogisticTrainerConfig(l2_penalty=0.0)
        fit = LogisticTrainer(config).fit(x_const, y, compiled=True)
        assert declined == [True]
        assert losses
        assert np.all(np.isfinite(fit.weights)) and fit.final_loss <= np.log(2.0)

    def test_regular_problem_skips_the_numpy_loop(self, rng, monkeypatch):
        x, y = separable_data(rng)
        losses = []
        loss = LogisticTrainer._loss
        monkeypatch.setattr(
            LogisticTrainer, "_loss", staticmethod(lambda *a: losses.append(1) or loss(*a))
        )
        LogisticTrainer().fit(x, y, compiled=True)
        assert not losses
