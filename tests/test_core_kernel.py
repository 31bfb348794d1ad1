"""Parity tests: the compiled sweep kernel against the reference loops.

The compiled kernel must reproduce the reference implementation's
Eq. 13 / Eq. 14 conditional log-weights to floating-point noise on every
document, for every model-design ablation, and a matched-seed fit must
yield identical assignments (hence equal NMI / perplexity). Sweep and fit
parity cases do not assert on the kernel's *class*: without a C toolchain
`"compiled"` degrades to the reference kernel, and every parity statement
must hold just the same. The conditional-level cases need the C
conditional builders, so they skip on such a host.
"""

import numpy as np
import pytest

from repro.core import CPDConfig, CPDModel, DiffusionParameters
from repro.core import _compiled
from repro.core.gibbs import CPDSampler
from repro.core.kernel import CompiledKernel, ReferenceKernel, make_kernel
from repro.evaluation import normalized_mutual_information

ABLATIONS = {
    "full": {},
    "similarity_diffusion": {"heterogeneity": False},
    "no_factors": {"use_topic_factor": False, "use_individual_factor": False},
    "no_friendship": {"model_friendship": False},
    "no_diffusion": {"model_diffusion": False},
    "no_content": {"community_uses_content": False},
}

KERNELS = ("reference", "compiled")

# building a "compiled" sampler on a toolchain-less host emits the
# documented one-time fallback warning; parity must hold regardless
fallback_ok = pytest.mark.filterwarnings(
    "ignore:compiled sweep kernel unavailable"
)

needs_backend = pytest.mark.skipif(
    not _compiled.backend_status()[0], reason="no C toolchain on this host"
)


def _mixed_sampler(graph, sweep_kernel="compiled", **overrides):
    config = CPDConfig(
        n_communities=4, n_topics=8, rho=0.5, alpha=0.5,
        sweep_kernel=sweep_kernel, **overrides,
    )
    params = DiffusionParameters.initial(4, 8)
    sampler = CPDSampler(graph, config, params, rng=0)
    # mix the state so counts, augmentation variables and eta are all
    # non-trivial before comparing conditionals
    sampler.sweep_documents()
    sampler.sample_lambdas()
    sampler.sample_deltas()
    sampler.params.eta = sampler.aggregate_eta()
    return sampler


class TestKernelSelection:
    @needs_backend
    def test_default_is_compiled(self, twitter_tiny):
        graph, _ = twitter_tiny
        config = CPDConfig(n_communities=4, n_topics=8, rho=0.5, alpha=0.5)
        assert config.sweep_kernel == "compiled"
        sampler = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=0)
        assert type(sampler.kernel) is CompiledKernel
        assert sampler.kernel.name == "compiled"

    def test_reference_switch(self, twitter_tiny, tiny_config):
        graph, _ = twitter_tiny
        config = tiny_config.with_overrides(sweep_kernel="reference")
        sampler = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=0)
        assert isinstance(sampler.kernel, ReferenceKernel)
        assert make_kernel(sampler).name == "reference"

    def test_invalid_switch_rejected(self):
        with pytest.raises(ValueError):
            CPDConfig(sweep_kernel="turbo")

    @fallback_ok
    def test_compiled_switch(self, twitter_tiny, tiny_config):
        graph, _ = twitter_tiny
        config = tiny_config.with_overrides(sweep_kernel="compiled")
        sampler = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=0)
        # kernel is CompiledKernel, or the ReferenceKernel fallback on a
        # toolchain-less host, which records why
        assert isinstance(sampler.kernel, (CompiledKernel, ReferenceKernel))
        if isinstance(sampler.kernel, ReferenceKernel):
            assert sampler.kernel.fallback_reason


@needs_backend
class TestConditionalParity:
    """Log-weights of the compiled kernel agree with reference to ~1e-10."""

    @pytest.mark.parametrize("kernel", ("compiled",))
    @pytest.mark.parametrize("ablation", sorted(ABLATIONS))
    def test_topic_and_community_log_weights(self, twitter_tiny, ablation, kernel):
        graph, _ = twitter_tiny
        sampler = _mixed_sampler(graph, sweep_kernel=kernel, **ABLATIONS[ablation])
        fast = sampler.kernel
        assert isinstance(fast, CompiledKernel)
        for doc_id in range(graph.n_documents):
            community, topic = sampler.state.unassign(doc_id)
            sampler.popularity.decrement(int(sampler._doc_time[doc_id]), topic)

            np.testing.assert_allclose(
                fast.topic_log_weights(doc_id, community),
                sampler.reference_topic_log_weights(doc_id, community),
                rtol=1e-10,
                atol=1e-9,
            )
            for candidate in (0, 3, 7):
                np.testing.assert_allclose(
                    fast.community_log_weights(doc_id, candidate),
                    sampler.reference_community_log_weights(doc_id, candidate),
                    rtol=1e-10,
                    atol=1e-9,
                )

            sampler.popularity.increment(int(sampler._doc_time[doc_id]), topic)
            sampler.state.assign(doc_id, community, topic)

    @pytest.mark.parametrize("kernel", ("compiled",))
    def test_parity_on_dblp(self, dblp_tiny, kernel):
        graph, _ = dblp_tiny
        sampler = _mixed_sampler(graph, sweep_kernel=kernel)
        for doc_id in range(0, graph.n_documents, 3):
            community, topic = sampler.state.unassign(doc_id)
            sampler.popularity.decrement(int(sampler._doc_time[doc_id]), topic)
            np.testing.assert_allclose(
                sampler.kernel.topic_log_weights(doc_id, community),
                sampler.reference_topic_log_weights(doc_id, community),
                rtol=1e-10,
                atol=1e-9,
            )
            sampler.popularity.increment(int(sampler._doc_time[doc_id]), topic)
            sampler.state.assign(doc_id, community, topic)


class TestMatchedSeedFits:
    """All kernels consume one uniform per draw, so matched seeds align."""

    @pytest.fixture(scope="class")
    def fits(self, twitter_tiny):
        graph, truth = twitter_tiny
        config = CPDConfig(
            n_communities=4, n_topics=8, n_iterations=5, rho=0.5, alpha=0.5
        )
        reference = CPDModel(
            config.with_overrides(sweep_kernel="reference"), rng=11
        ).fit(graph)
        default = CPDModel(config, rng=11).fit(graph)  # the compiled kernel
        return graph, truth, reference, default

    def test_assignments_identical(self, fits):
        _, _, reference, default = fits
        np.testing.assert_array_equal(reference.doc_topic, default.doc_topic)
        np.testing.assert_array_equal(
            reference.doc_community, default.doc_community
        )

    @fallback_ok
    def test_compiled_fit_matches(self, fits, twitter_tiny):
        graph, _, reference, _ = fits
        config = CPDConfig(
            n_communities=4, n_topics=8, n_iterations=5, rho=0.5, alpha=0.5,
            sweep_kernel="compiled",
        )
        compiled = CPDModel(config, rng=11).fit(graph)
        np.testing.assert_array_equal(reference.doc_topic, compiled.doc_topic)
        np.testing.assert_array_equal(
            reference.doc_community, compiled.doc_community
        )
        np.testing.assert_allclose(reference.pi, compiled.pi, atol=1e-12)
        np.testing.assert_allclose(reference.theta, compiled.theta, atol=1e-12)
        np.testing.assert_allclose(reference.phi, compiled.phi, atol=1e-12)

    def test_nmi_equal_within_noise(self, fits):
        _, truth, reference, default = fits
        nmi_ref = normalized_mutual_information(
            truth.doc_community, reference.doc_community
        )
        nmi_default = normalized_mutual_information(
            truth.doc_community, default.doc_community
        )
        assert nmi_default == pytest.approx(nmi_ref, abs=1e-9)

    def test_estimators_equal_within_noise(self, fits):
        _, _, reference, default = fits
        np.testing.assert_allclose(reference.pi, default.pi, atol=1e-12)
        np.testing.assert_allclose(reference.theta, default.theta, atol=1e-12)
        np.testing.assert_allclose(reference.phi, default.phi, atol=1e-12)
        np.testing.assert_allclose(
            reference.diffusion.eta, default.diffusion.eta, atol=1e-12
        )

    @fallback_ok
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fixed_communities_supported(self, twitter_tiny, kernel):
        graph, _ = twitter_tiny
        config = CPDConfig(
            n_communities=4, n_topics=8, rho=0.5, alpha=0.5, sweep_kernel=kernel
        )
        fixed = np.zeros(graph.n_documents, dtype=np.int64)
        sampler = CPDSampler(
            graph, config, DiffusionParameters.initial(4, 8), rng=0,
            fixed_communities=fixed,
        )
        sampler.sweep_documents()
        np.testing.assert_array_equal(sampler.state.doc_community, 0)
        sampler.state.check_consistency()


@needs_backend
class TestMidResampleGuard:
    def test_unassigned_neighbor_skipped_like_reference(self, twitter_tiny):
        """Off-contract: another linked document is unassigned — the C
        conditional must skip its links like the reference loop does,
        rather than wrap negative indices."""
        graph, _ = twitter_tiny
        sampler = _mixed_sampler(graph)
        link = 0
        source = int(sampler.e_src[link])
        target = int(sampler.e_tgt[link])
        if source == target:
            pytest.skip("scenario produced a self-link")
        # unassign BOTH endpoints: target is the queried document, source is
        # the out-of-contract unassigned neighbor
        for doc in (source, target):
            _, topic = sampler.state.unassign(doc)
            sampler.popularity.decrement(int(sampler._doc_time[doc]), topic)
        np.testing.assert_allclose(
            sampler.kernel.community_log_weights(target, 2),
            sampler.reference_community_log_weights(target, 2),
            rtol=1e-10,
            atol=1e-9,
        )


class TestSweepEquivalence:
    @fallback_ok
    def test_sweep_keeps_consistency_all_kernels(self, twitter_tiny, tiny_config):
        graph, _ = twitter_tiny
        for kernel in KERNELS:
            config = tiny_config.with_overrides(sweep_kernel=kernel)
            sampler = CPDSampler(
                graph, config, DiffusionParameters.initial(4, 8), rng=3
            )
            sampler.sweep_documents()
            sampler.state.check_consistency()
            assert np.all(sampler.state.doc_topic >= 0)

    @fallback_ok
    def test_matched_seed_sweep_draws_identical(self, twitter_tiny, tiny_config):
        graph, _ = twitter_tiny
        samplers = []
        for kernel in KERNELS:
            config = tiny_config.with_overrides(sweep_kernel=kernel)
            sampler = CPDSampler(
                graph, config, DiffusionParameters.initial(4, 8), rng=9
            )
            sampler.sweep_documents()
            sampler.sweep_documents()
            samplers.append(sampler)
        for other in samplers[1:]:
            np.testing.assert_array_equal(
                samplers[0].state.doc_topic, other.state.doc_topic
            )
            np.testing.assert_array_equal(
                samplers[0].state.doc_community, other.state.doc_community
            )
