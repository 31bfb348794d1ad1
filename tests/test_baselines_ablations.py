"""Tests for the CPD ablation variants (paper Sect. 6.2)."""

import numpy as np
import pytest

from repro.baselines import CPDVariant, VARIANTS, fit_no_joint, variant_config
from repro.core import CPDConfig


@pytest.fixture(scope="module")
def ablation_config():
    return CPDConfig(n_communities=4, n_topics=8, n_iterations=5, rho=0.5, alpha=0.5)


class TestVariantConfig:
    def test_full_unchanged(self, ablation_config):
        assert variant_config(ablation_config, "full") is ablation_config

    def test_no_heterogeneity(self, ablation_config):
        config = variant_config(ablation_config, "no_heterogeneity")
        assert config.heterogeneity is False
        assert config.model_diffusion is True

    def test_no_individual_topic(self, ablation_config):
        config = variant_config(ablation_config, "no_individual_topic")
        assert not config.use_individual_factor
        assert not config.use_topic_factor

    def test_no_topic(self, ablation_config):
        config = variant_config(ablation_config, "no_topic")
        assert not config.use_topic_factor
        assert config.use_individual_factor

    def test_unknown_variant(self, ablation_config):
        with pytest.raises(ValueError):
            variant_config(ablation_config, "no_everything")


class TestNoJoint:
    def test_two_phase_fit(self, twitter_tiny, ablation_config):
        graph, _ = twitter_tiny
        result = fit_no_joint(graph, ablation_config, rng=0)
        assert result.pi.shape == (graph.n_users, 4)
        assert result.eta.sum() == pytest.approx(1.0)

    def test_detection_ignores_content_and_diffusion(self, twitter_tiny, ablation_config):
        """Phase-1 communities must come from friendship links only —
        verified by the profiling result carrying the frozen assignments."""
        graph, _ = twitter_tiny
        detection_config = ablation_config.with_overrides(
            model_diffusion=False, community_uses_content=False
        )
        from repro.core import CPDModel, FitOptions

        detection = CPDModel(detection_config, rng=0).fit(graph)
        import numpy as np
        from repro.sampling import ensure_rng

        profiling = CPDModel(ablation_config, rng=1).fit(
            graph, FitOptions(fixed_communities=detection.doc_community)
        )
        np.testing.assert_array_equal(profiling.doc_community, detection.doc_community)


class TestCPDVariantAdapter:
    def test_all_variants_fit(self, twitter_tiny, ablation_config):
        graph, _ = twitter_tiny
        for variant in VARIANTS:
            model = CPDVariant(ablation_config, variant).fit(graph, rng=0)
            scores = model.diffusion_scores(
                np.array([0, 1]), np.array([2, 3]), np.array([0, 0])
            )
            assert scores.shape == (2,)
            assert model.memberships() is not None

    def test_names(self, ablation_config):
        assert CPDVariant(ablation_config).name == "CPD"
        assert CPDVariant(ablation_config, "no_topic").name == "CPD[no_topic]"

    def test_unknown_variant_rejected(self, ablation_config):
        with pytest.raises(ValueError):
            CPDVariant(ablation_config, "bogus")

    def test_no_heterogeneity_scores_by_similarity(self, twitter_tiny, ablation_config):
        graph, _ = twitter_tiny
        model = CPDVariant(ablation_config, "no_heterogeneity").fit(graph, rng=0)
        doc_user = graph.doc_user
        pi = model.result.pi
        src, tgt = np.array([0, 4]), np.array([7, 9])
        expected = np.einsum("ij,ij->i", pi[doc_user[src]], pi[doc_user[tgt]])
        np.testing.assert_allclose(
            model.diffusion_scores(src, tgt, np.zeros(2, dtype=int)), expected
        )

    def test_profiles_exposed(self, twitter_tiny, ablation_config):
        graph, _ = twitter_tiny
        model = CPDVariant(ablation_config).fit(graph, rng=0)
        profiles = model.profiles()
        assert profiles.phi.shape[1] == graph.n_words

    def test_requires_fit(self, ablation_config):
        model = CPDVariant(ablation_config)
        with pytest.raises(RuntimeError):
            _ = model.result
