"""The compiled sweep backend: fallback, env switches, draw/PG contracts.

Kernel-vs-kernel *parity* lives in ``test_core_kernel.py`` (the compiled
kernel rides its matrices); this file pins the machinery around the
backend — graceful degradation without a C toolchain, the environment
switches, and the cross-language RNG contracts (DESIGN.md §10). Every
test here must pass whether or not the host can actually compile.
"""

import ctypes
import warnings

import numpy as np
import pytest

from repro.core import CPDConfig, DiffusionParameters
from repro.core import _compiled
from repro.core.config import SWEEP_KERNEL_ENV, SWEEP_KERNELS
from repro.core.gibbs import CPDSampler
from repro.core.kernel import (
    VectorizedKernel,
    compiled_fallback_reason,
    make_kernel,
    reset_fallback_state,
)
from repro.sampling.categorical import (
    draw_log_categorical,
    draw_log_categorical_from_uniform,
)
from repro.sampling.polya_gamma import _SLOTS, sample_pg_array

BACKEND_AVAILABLE = _compiled.backend_status()[0]

needs_backend = pytest.mark.skipif(
    not BACKEND_AVAILABLE, reason="no C toolchain on this host"
)


def _tiny_sampler(graph, sweep_kernel="compiled", rng=0, **overrides):
    config = CPDConfig(
        n_communities=4, n_topics=8, rho=0.5, alpha=0.5,
        sweep_kernel=sweep_kernel, **overrides,
    )
    return CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=rng)


class TestFallback:
    @pytest.fixture()
    def broken_backend(self, monkeypatch):
        """A backend that refuses to load, plus clean fallback bookkeeping."""

        def refuse():
            raise _compiled.CompiledBackendUnavailable("no toolchain (test)")

        monkeypatch.setattr(_compiled, "load_library", refuse)
        reset_fallback_state()
        yield
        reset_fallback_state()

    def test_falls_back_with_single_warning(self, twitter_tiny, broken_backend):
        graph, _ = twitter_tiny
        with pytest.warns(RuntimeWarning, match="no toolchain \\(test\\)"):
            sampler = _tiny_sampler(graph)
        assert type(sampler.kernel) is VectorizedKernel
        assert sampler.kernel.name == "vectorized"
        assert sampler.kernel.fallback_reason == "no toolchain (test)"
        assert compiled_fallback_reason() == "no toolchain (test)"
        # the warning fires once per process, not once per sampler
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = _tiny_sampler(graph)
        assert again.kernel.name == "vectorized"

    def test_fallback_results_identical_to_vectorized(
        self, twitter_tiny, broken_backend
    ):
        graph, _ = twitter_tiny
        with pytest.warns(RuntimeWarning):
            degraded = _tiny_sampler(graph, rng=7)
        plain = _tiny_sampler(graph, sweep_kernel="vectorized", rng=7)
        for sampler in (degraded, plain):
            sampler.sweep_documents()
        np.testing.assert_array_equal(
            degraded.state.doc_topic, plain.state.doc_topic
        )
        np.testing.assert_array_equal(
            degraded.state.doc_community, plain.state.doc_community
        )

    def test_reference_kernel_untouched_by_broken_backend(
        self, twitter_tiny, broken_backend
    ):
        graph, _ = twitter_tiny
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sampler = _tiny_sampler(graph, sweep_kernel="reference")
        assert sampler.kernel.name == "reference"


class TestEnvironmentSwitches:
    def test_sweep_kernel_env_sets_default(self, monkeypatch):
        for kernel in SWEEP_KERNELS:
            monkeypatch.setenv(SWEEP_KERNEL_ENV, kernel)
            assert CPDConfig().sweep_kernel == kernel

    def test_explicit_value_beats_env(self, monkeypatch):
        monkeypatch.setenv(SWEEP_KERNEL_ENV, "reference")
        assert CPDConfig(sweep_kernel="vectorized").sweep_kernel == "vectorized"

    def test_unset_or_empty_env_means_vectorized(self, monkeypatch):
        monkeypatch.delenv(SWEEP_KERNEL_ENV, raising=False)
        assert CPDConfig().sweep_kernel == "vectorized"
        monkeypatch.setenv(SWEEP_KERNEL_ENV, "")
        assert CPDConfig().sweep_kernel == "vectorized"

    def test_invalid_env_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(SWEEP_KERNEL_ENV, "turbo")
        with pytest.raises(ValueError, match=SWEEP_KERNEL_ENV):
            CPDConfig()

    def test_validation_message_names_all_kernels(self):
        with pytest.raises(ValueError, match=", ".join(SWEEP_KERNELS)):
            CPDConfig(sweep_kernel="turbo")

    def test_disable_env_kills_the_backend(self, monkeypatch):
        monkeypatch.setenv(_compiled.DISABLE_ENV, "1")
        available, reason = _compiled.backend_status()
        assert not available
        assert _compiled.DISABLE_ENV in reason
        with pytest.raises(_compiled.CompiledBackendUnavailable):
            _compiled.load_library()

    def test_disable_env_zero_or_empty_is_off(self, monkeypatch):
        # "0"/"" must not disable — only the probe outcome decides
        monkeypatch.delenv(_compiled.DISABLE_ENV, raising=False)
        expected = _compiled.backend_status()[0]
        for value in ("0", ""):
            monkeypatch.setenv(_compiled.DISABLE_ENV, value)
            assert _compiled.backend_status()[0] == expected


@needs_backend
class TestDrawContract:
    """The C categorical draw is bit-for-bit the Python algorithm."""

    def test_matches_pure_function_and_generator_path(self):
        library = _compiled.load_library()
        rng = np.random.default_rng(123)
        for size in (1, 2, 5, 8, 32):
            for _ in range(50):
                log_weights = rng.normal(scale=5.0, size=size)
                uniform = rng.random()
                out = np.empty(size, dtype=np.float64)

                class _Emitter:
                    def random(self):
                        return uniform

                expected = draw_log_categorical_from_uniform(log_weights, uniform)
                via_generator = draw_log_categorical(log_weights.copy(), _Emitter())
                from_c = library.cpd_draw_log_categorical(
                    np.ascontiguousarray(log_weights).ctypes.data_as(
                        ctypes.POINTER(ctypes.c_double)
                    ),
                    ctypes.c_int64(size),
                    ctypes.c_double(uniform),
                    out.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
                )
                assert from_c == expected == via_generator

    def test_tie_walk_back_on_rounded_up_uniform(self):
        library = _compiled.load_library()
        # trailing -inf outcomes have zero weight: a uniform of ~1.0 must
        # walk back to the last positive-weight index, never return them
        log_weights = np.array([0.0, 1.0, -np.inf, -np.inf])
        out = np.empty(4, dtype=np.float64)
        index = library.cpd_draw_log_categorical(
            log_weights.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            ctypes.c_int64(4),
            ctypes.c_double(1.0),
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        )
        assert index == draw_log_categorical_from_uniform(log_weights, 1.0) == 1


@needs_backend
class TestCompiledPolyaGamma:
    """``cpd_pg1`` reads the uniform blocks exactly as the numpy round does."""

    @staticmethod
    def _both(z, seed):
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        plain = sample_pg_array(z, rng_a)
        fused = sample_pg_array(z, rng_b, compiled=True)
        return plain, fused, rng_a, rng_b

    def test_same_bit_stream_and_close_values(self):
        z = np.linspace(-4.0, 4.0, 37)
        plain, fused, rng_a, rng_b = self._both(z, 5)
        np.testing.assert_allclose(plain, fused, rtol=1e-12, atol=1e-15)
        # both paths consumed identical Generator state: next draws agree
        np.testing.assert_array_equal(rng_a.random(8), rng_b.random(8))

    def test_b_greater_than_one(self):
        """PG(b, z) is a sum of b PG(1, z) draws; the sums agree too."""
        z = np.repeat([0.0, 0.5, -2.0], 3)
        plain, fused, _, _ = self._both(z, 9)
        np.testing.assert_allclose(
            plain.reshape(3, 3).sum(axis=1), fused.reshape(3, 3).sum(axis=1),
            rtol=1e-12, atol=1e-15,
        )

    def test_refill_rounds_match(self):
        """Links that miss their first block finish in refills on both paths."""
        z = np.full(400, 2.5)  # chi trials: some links need more than 8 reads
        plain, fused, rng_a, rng_b = self._both(z, 13)
        np.testing.assert_allclose(plain, fused, rtol=1e-12, atol=1e-15)
        reference = np.random.default_rng(13)
        reference.random((400, _SLOTS))  # a single round would stop here
        next_draw = rng_a.random()
        assert next_draw != reference.random()
        assert next_draw == rng_b.random()

    def test_tails_and_branch_boundary_match(self):
        z = np.array([0.0, -3.125, 3.125, 39.99, 40.01, 97.0, -300.0, 1e3, 1e-9])
        plain, fused, rng_a, rng_b = self._both(np.repeat(z, 50), 17)
        np.testing.assert_allclose(plain, fused, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(rng_a.random(8), rng_b.random(8))

    def test_round_rejects_mistyped_buffers(self):
        z, out = np.zeros(3), np.empty(3)
        with pytest.raises(ValueError, match="int8"):
            _compiled.pg1_rounds(z, np.arange(3), np.zeros(3), out)
        with pytest.raises(ValueError, match="index z"):
            _compiled.pg1_rounds(z, np.array([0, 1, 3]), np.zeros(3, np.int8), out)
        draw_round = _compiled.pg1_rounds(z, np.arange(3), np.zeros(3, np.int8), out)
        with pytest.raises(ValueError, match="row per pending link"):
            draw_round(np.zeros((4, _SLOTS)))
        with pytest.raises(ValueError, match="row per pending link"):
            draw_round(np.zeros((3, _SLOTS), dtype=np.float32))


@needs_backend
class TestCompiledSweepMachinery:
    def test_rejects_out_of_range_ids(self, twitter_tiny):
        graph, _ = twitter_tiny
        sampler = _tiny_sampler(graph)
        with pytest.raises(ValueError, match="out of range"):
            sampler.kernel.sweep(np.array([graph.n_documents], dtype=np.int64))
        with pytest.raises(ValueError, match="out of range"):
            sampler.kernel.sweep(np.array([-1], dtype=np.int64))

    def test_rejects_unassigned_documents(self, twitter_tiny):
        graph, _ = twitter_tiny
        sampler = _tiny_sampler(graph)
        sampler.state.unassign(0)
        with pytest.raises(ValueError, match="assigned"):
            sampler.kernel.sweep(np.array([0], dtype=np.int64))

    def test_partial_sweep_matches_vectorized(self, twitter_tiny):
        graph, _ = twitter_tiny
        subset = np.arange(0, graph.n_documents, 3, dtype=np.int64)
        samplers = [
            _tiny_sampler(graph, sweep_kernel=kernel, rng=21)
            for kernel in ("vectorized", "compiled")
        ]
        for sampler in samplers:
            sampler.sweep_documents(subset)
            sampler.state.check_consistency()
        np.testing.assert_array_equal(
            samplers[0].state.doc_topic, samplers[1].state.doc_topic
        )
        np.testing.assert_array_equal(
            samplers[0].state.doc_community, samplers[1].state.doc_community
        )

    def test_streaming_append_then_sweep(self, twitter_tiny):
        graph, _ = twitter_tiny
        samplers = [
            _tiny_sampler(graph, sweep_kernel=kernel, rng=13)
            for kernel in ("vectorized", "compiled")
        ]
        new_docs = [np.array([0, 1, 1, 2]), np.array([3, 3])]
        for sampler in samplers:
            sampler.sweep_documents()
            ids = sampler.append_documents(
                new_docs,
                users=np.array([0, 1]),
                timestamps=np.array([5, 6]),
                communities=np.array([1, 2]),
                topics=np.array([0, 3]),
            )
            sampler.sweep_documents(ids)
            sampler.sweep_documents()
            sampler.state.check_consistency()
        np.testing.assert_array_equal(
            samplers[0].state.doc_topic, samplers[1].state.doc_topic
        )
        np.testing.assert_array_equal(
            samplers[0].state.doc_community, samplers[1].state.doc_community
        )


def _tables_off(kernel):
    """Route every count log back through libm (the NULL-pointer path)."""
    kernel._log_beta_table = kernel._log_alpha_table = kernel._lgamma_cache = None


@needs_backend
class TestCountLogTables:
    """The count-log tables change no bit of the Eq. 13 weights (DESIGN.md §10)."""

    @staticmethod
    def _weights_without_tables(kernel, doc, community):
        saved = (kernel._log_beta_table, kernel._log_alpha_table, kernel._lgamma_cache)
        _tables_off(kernel)
        try:
            return kernel.topic_log_weights(doc, community)
        finally:
            kernel._log_beta_table, kernel._log_alpha_table, kernel._lgamma_cache = saved

    def _assert_table_path_exact(self, sampler, docs):
        kernel = sampler.kernel
        for doc in docs:
            community = int(sampler.state.doc_community[doc])
            first = kernel.topic_log_weights(doc, community)  # fills the lgamma cache
            second = kernel.topic_log_weights(doc, community)  # reads it
            expected = self._weights_without_tables(kernel, doc, community)
            np.testing.assert_array_equal(first, expected)
            np.testing.assert_array_equal(second, expected)

    def test_tables_match_libm_bitwise(self, twitter_tiny):
        graph, _ = twitter_tiny
        sampler = _tiny_sampler(graph, rng=4)
        sampler.sweep_documents()
        kernel = sampler.kernel
        assert kernel._log_beta_table is not None
        assert kernel._log_alpha_table.shape == (graph.n_documents + 1,)
        self._assert_table_path_exact(sampler, range(0, graph.n_documents, 5))
        # with the document unassigned, as the sweep evaluates it
        for doc in range(0, graph.n_documents, 11):
            community = int(sampler.state.doc_community[doc])
            topic = int(sampler.state.doc_topic[doc])
            sampler.state.unassign(doc)
            np.testing.assert_array_equal(
                kernel.topic_log_weights(doc, community),
                self._weights_without_tables(kernel, doc, community),
            )
            sampler.state.assign(doc, community, topic)

    def test_matched_seed_sweeps_identical(self, twitter_tiny):
        graph, _ = twitter_tiny
        samplers = [_tiny_sampler(graph, rng=17) for _ in range(2)]
        _tables_off(samplers[1].kernel)
        for _ in range(5):
            for sampler in samplers:
                sampler.sweep_documents()
            np.testing.assert_array_equal(
                samplers[0].state.doc_topic, samplers[1].state.doc_topic
            )
            np.testing.assert_array_equal(
                samplers[0].state.doc_community, samplers[1].state.doc_community
            )
        assert (
            samplers[0].rng.bit_generator.state == samplers[1].rng.bit_generator.state
        )

    def test_count_past_the_table_falls_back_exactly(self, twitter_tiny):
        graph, _ = twitter_tiny
        sampler = _tiny_sampler(graph, rng=8)
        kernel = sampler.kernel
        stale_table = kernel._log_beta_table
        doc = next(
            d for d in range(graph.n_documents)
            if kernel.ws_indptr[d + 1] > kernel.ws_indptr[d]
        )
        word = int(kernel.ws_words[kernel.ws_indptr[doc]])
        # one appended document repeating the word more often than the
        # whole corpus held tokens at construction
        sampler.append_documents(
            [np.full(len(stale_table) + 5, word)],
            users=np.array([0]),
            timestamps=np.array([0]),
            communities=np.array([0]),
            topics=np.array([0]),
        )
        cell = sampler.state.topic_word[0, word]
        assert cell >= len(stale_table)
        assert cell < len(kernel._log_beta_table)  # the append hook rebuilt it
        self._assert_table_path_exact(sampler, [doc])
        kernel._log_beta_table = stale_table
        self._assert_table_path_exact(sampler, [doc])

    def test_non_integral_counts_fall_back_exactly(self, twitter_tiny):
        graph, _ = twitter_tiny
        sampler = _tiny_sampler(graph, rng=9)
        kernel = sampler.kernel
        doc = next(
            d for d in range(graph.n_documents)
            if kernel.ws_indptr[d + 1] > kernel.ws_indptr[d]
        )
        word = int(kernel.ws_words[kernel.ws_indptr[doc]])
        community = int(sampler.state.doc_community[doc])
        self._assert_table_path_exact(sampler, [doc])  # warm the lgamma cache
        state = sampler.state
        state.topic_word[2, word] += 0.5
        state.community_topic[community, 3] += 0.25
        state.topic_totals[1] += 0.5  # moves one lgamma cache key
        self._assert_table_path_exact(sampler, [doc])
