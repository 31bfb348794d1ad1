"""Tests for CPDConfig."""

import pytest

from repro.core import CPDConfig


class TestPriorConventions:
    def test_alpha_default_is_50_over_z(self):
        assert CPDConfig(n_communities=5, n_topics=25).resolved_alpha == pytest.approx(2.0)

    def test_rho_default_is_50_over_c(self):
        assert CPDConfig(n_communities=25, n_topics=5).resolved_rho == pytest.approx(2.0)

    def test_beta_default(self):
        assert CPDConfig().beta == pytest.approx(0.1)

    def test_overrides(self):
        config = CPDConfig(alpha=0.3, rho=0.7)
        assert config.resolved_alpha == 0.3
        assert config.resolved_rho == 0.7


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_communities=0),
            dict(n_topics=0),
            dict(n_iterations=0),
            dict(beta=0.0),
            dict(alpha=-1.0),
            dict(rho=0.0),
            dict(sweep_kernel="vectorized"),
            dict(negative_ratio=0.0),
            dict(eta_smoothing=0.0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            CPDConfig(**kwargs)


class TestWithOverrides:
    def test_returns_new_config(self):
        base = CPDConfig(n_communities=4)
        derived = base.with_overrides(heterogeneity=False)
        assert derived.heterogeneity is False
        assert base.heterogeneity is True
        assert derived.n_communities == 4

    def test_frozen(self):
        config = CPDConfig()
        with pytest.raises(Exception):
            config.n_topics = 3


class TestAblationFlags:
    def test_defaults_are_full_model(self):
        config = CPDConfig()
        assert config.model_friendship
        assert config.model_diffusion
        assert config.heterogeneity
        assert config.use_individual_factor
        assert config.use_topic_factor
        assert config.community_uses_content
