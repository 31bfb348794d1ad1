"""The compiled sweep backend: fallback, env switches, draw/PG contracts.

Kernel-vs-kernel *parity* lives in ``test_core_kernel.py`` (the compiled
kernel rides its matrices); this file pins the machinery around the
backend — graceful degradation to the reference kernel without a C
toolchain, the ``REPRO_COMPILED_DISABLE`` switch, the cross-language
RNG contracts and the exact rewrites inside the C conditionals
(DESIGN.md §10), the linear-space draws of the sweep and the C source's
warning hygiene. Every test here must pass whether or not the host can
actually compile.
"""

import ctypes
import math
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from repro.core import CPDConfig, DiffusionParameters
from repro.core import _compiled
from repro.core.config import SWEEP_KERNELS
from repro.core.gibbs import CPDSampler
from repro.core.kernel import (
    ReferenceKernel,
    compiled_fallback_reason,
    reset_fallback_state,
)
from repro.core.state import CPDState
from repro.sampling.categorical import (
    draw_log_categorical_from_uniform,
    sample_log_categorical,
)
from repro.sampling.polya_gamma import _SLOTS, sample_pg_array

BACKEND_AVAILABLE = _compiled.backend_status()[0]

needs_backend = pytest.mark.skipif(
    not BACKEND_AVAILABLE, reason="no C toolchain on this host"
)


def _tiny_sampler(graph, sweep_kernel="compiled", rng=0, **overrides):
    settings = {"rho": 0.5, "alpha": 0.5, **overrides}
    config = CPDConfig(n_communities=4, n_topics=8, sweep_kernel=sweep_kernel, **settings)
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
        assert type(sampler.kernel) is ReferenceKernel
        assert sampler.kernel.name == "reference"
        assert sampler.kernel.fallback_reason == "no toolchain (test)"
        assert compiled_fallback_reason() == "no toolchain (test)"
        # the warning fires once per process, not once per sampler
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = _tiny_sampler(graph)
        assert again.kernel.name == "reference"

    def test_fallback_results_identical_to_reference(
        self, twitter_tiny, broken_backend
    ):
        graph, _ = twitter_tiny
        with pytest.warns(RuntimeWarning):
            degraded = _tiny_sampler(graph, rng=7)
        plain = _tiny_sampler(graph, sweep_kernel="reference", rng=7)
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

    def test_compile_flags_key_the_library_path(self, monkeypatch):
        # a flag change must not reuse a shared object built with old flags
        path = _compiled._library_path("/usr/bin/cc")
        assert _compiled._library_path("/usr/bin/cc") == path
        flags = tuple("-O2" if arg == "-O3" else arg for arg in _compiled._CC_ARGS)
        assert flags != _compiled._CC_ARGS
        monkeypatch.setattr(_compiled, "_CC_ARGS", flags)
        assert _compiled._library_path("/usr/bin/cc") != path

    def test_disabled_backend_pg_draws_fall_back_to_numpy(self, monkeypatch):
        monkeypatch.setenv(_compiled.DISABLE_ENV, "1")
        z = np.linspace(-3.0, 3.0, 11)
        fused = sample_pg_array(z, np.random.default_rng(4), compiled=True)
        np.testing.assert_array_equal(fused, sample_pg_array(z, np.random.default_rng(4)))

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
                seed = int(rng.integers(2**32))
                uniform = np.random.default_rng(seed).random()
                out = np.empty(size, dtype=np.float64)

                expected = draw_log_categorical_from_uniform(log_weights, uniform)
                # the reference kernel's draw, fed a Generator about to emit
                # the same uniform
                via_generator = sample_log_categorical(
                    log_weights, np.random.default_rng(seed)
                )
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
    """``cpd_pg1_draw`` reads the stream of the numpy rounds' uniform blocks."""

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

    def test_single_call_equals_round_by_round_spec(self):
        """Every refill round in one C call reads the stream the numpy
        spec's per-round blocks read: the draws agree and the Generator
        ends in the same state, over tilts that need several rounds."""
        for seed in range(30):
            z = np.random.default_rng(100 + seed).normal(scale=4.0, size=64)
            z[::7] = 2.5  # chi-trial links, the ones that run out of slots
            plain, fused, rng_a, rng_b = self._both(z, seed)
            np.testing.assert_allclose(plain, fused, rtol=1e-12, atol=1e-15)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_round_rejects_mistyped_buffers(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="float64"):
            _compiled.pg1_draws(np.zeros(3, dtype=np.float32), _SLOTS, rng)
        with pytest.raises(ValueError, match="float64"):
            _compiled.pg1_draws(np.zeros(6)[::2], _SLOTS, rng)
        with pytest.raises(ValueError, match="1-D"):
            _compiled.pg1_draws(np.zeros((2, 3)), _SLOTS, rng)
        # fewer than 4 slots could never finish a body proposal
        with pytest.raises(ValueError, match="4 slots"):
            _compiled.pg1_draws(np.zeros(3), 3, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@needs_backend
class TestBitGeneratorDraws:
    """C reads the Generator's bit generator exactly as numpy's own calls do."""

    BOUNDS = (1, 2, 3, 7, 12, 1001, 2**31 + 1, 2**32 - 5, 2**32 - 1, 2**32)

    def test_integers_match_the_generator(self):
        for seed in range(40):
            rng, spec = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = _compiled.draw_integers(rng, self.BOUNDS, 25)
            expected = [[spec.integers(0, bound) for bound in self.BOUNDS] for _ in range(25)]
            np.testing.assert_array_equal(drawn, expected)
            assert drawn.dtype == np.int64
            assert rng.bit_generator.state == spec.bit_generator.state

    def test_array_high_form(self):
        """``integers(0, highs)`` with an array of highs reads one bounded
        draw per entry, as a row of scalar calls does."""
        highs = np.array([5, 1, 2**32 - 1, 9, 1, 2**32, 3], dtype=np.int64)
        for seed in range(40):
            rng, spec = np.random.default_rng(seed), np.random.default_rng(seed)
            np.testing.assert_array_equal(
                _compiled.draw_integers(rng, tuple(highs), 1)[0], spec.integers(0, highs)
            )
            assert rng.bit_generator.state == spec.bit_generator.state

    def test_half_word_carried_between_calls(self):
        """An odd number of 32-bit reads leaves half a 64-bit word in the bit
        generator; numpy's next bounded draw takes it, ``random()`` does not,
        and the next C call continues from wherever numpy left it."""
        for seed in range(40):
            rng, spec = np.random.default_rng(seed), np.random.default_rng(seed)
            mixed = [
                _compiled.draw_integers(rng, (7,), 3).ravel().tolist(),
                [rng.random(), int(rng.integers(0, 11))],
                _compiled.draw_integers(rng, (2**32 - 1, 5), 1).ravel().tolist(),
                [rng.random()],
                _compiled.draw_integers(rng, (3,), 1).ravel().tolist(),
            ]
            expected = [
                [spec.integers(0, 7) for _ in range(3)],
                [spec.random(), spec.integers(0, 11)],
                [spec.integers(0, 2**32 - 1), spec.integers(0, 5)],
                [spec.random()],
                [spec.integers(0, 3)],
            ]
            assert mixed == expected
            assert rng.bit_generator.state == spec.bit_generator.state

    def test_threads_sharing_a_generator_lose_no_draw(self):
        """C calls hold the bit generator's lock: four threads (more than the
        cores) interleaving C and numpy draws on one Generator advance it by
        exactly the words they read, so no draw was read twice."""
        calls, words_per_call, doubles = 40, 20000, 2000
        rng = np.random.default_rng(12)

        def draw():
            for _ in range(calls):
                _compiled.draw_integers(rng, (2**32,), words_per_call)  # raw 32-bit words
                rng.random(doubles)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # two 32-bit words per 64-bit step; every call reads an even count
        steps = 4 * calls * (words_per_call // 2 + doubles)
        state = rng.bit_generator.state
        assert state["state"] == np.random.PCG64(12).advance(steps).state["state"]
        assert state["has_uint32"] == 0

    def test_rejects_bounds_off_the_32_bit_path(self):
        rng = np.random.default_rng(0)
        for bounds in ((0,), (2**32 + 1,), (-3, 4)):
            with pytest.raises(ValueError, match="bounds"):
                _compiled.draw_integers(rng, bounds, 2)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


class TestCompiledSweepMachinery:
    @pytest.mark.filterwarnings("ignore:compiled sweep kernel unavailable")
    def test_rejects_out_of_range_ids(self, twitter_tiny):
        """Both kernels refuse ids outside ``[0, n_docs)`` before touching
        the state (a negative id used to resample the last document)."""
        graph, _ = twitter_tiny
        for kernel in SWEEP_KERNELS:
            sampler = _tiny_sampler(graph, sweep_kernel=kernel)
            before = sampler.state.doc_topic.copy()
            for bad in (graph.n_documents, -1):
                with pytest.raises(ValueError, match="out of range"):
                    sampler.kernel.sweep(np.array([0, bad], dtype=np.int64))
            np.testing.assert_array_equal(sampler.state.doc_topic, before)

    @needs_backend
    def test_rejects_unassigned_documents(self, twitter_tiny):
        graph, _ = twitter_tiny
        sampler = _tiny_sampler(graph)
        sampler.state.unassign(0)
        with pytest.raises(ValueError, match="assigned"):
            sampler.kernel.sweep(np.array([0], dtype=np.int64))

    @needs_backend
    def test_partial_sweep_matches_reference(self, twitter_tiny):
        graph, _ = twitter_tiny
        subset = np.arange(0, graph.n_documents, 3, dtype=np.int64)
        samplers = [
            _tiny_sampler(graph, sweep_kernel=kernel, rng=21)
            for kernel in ("reference", "compiled")
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

    @needs_backend
    def test_sweep_reads_the_swapped_generator(self, twitter_tiny):
        """The thread runner swaps ``sampler.rng`` around a worker's sweep:
        C must draw from the Generator in place at the call, not from the
        one the kernel was built with."""
        graph, _ = twitter_tiny
        outcomes = []
        for kernel in ("reference", "compiled"):
            sampler = _tiny_sampler(graph, sweep_kernel=kernel, rng=8)
            caller_rng = sampler.rng
            caller_state = caller_rng.bit_generator.state
            sampler.rng = np.random.default_rng(77)
            sampler.sweep_documents()
            swapped_state = sampler.rng.bit_generator.state
            sampler.rng = caller_rng
            assert caller_rng.bit_generator.state == caller_state
            sampler.sweep_documents()
            outcomes.append(
                (sampler.state.doc_topic.copy(), swapped_state, caller_rng.bit_generator.state)
            )
        (topics_a, swapped_a, caller_a), (topics_b, swapped_b, caller_b) = outcomes
        np.testing.assert_array_equal(topics_a, topics_b)
        assert swapped_a == swapped_b
        assert caller_a == caller_b

    @needs_backend
    def test_streaming_append_then_sweep(self, twitter_tiny):
        graph, _ = twitter_tiny
        samplers = [
            _tiny_sampler(graph, sweep_kernel=kernel, rng=13)
            for kernel in ("reference", "compiled")
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


def _merge_state(sampler):
    """Everything the runner's merge may touch, as bytes."""
    state = sampler.state
    arrays = [getattr(state, name) for name in CPDState.SHARED_FIELDS] + [
        sampler.popularity._counts,
        state.pi_hat_view(),
        state.theta_hat_view(),
    ]
    return [array.tobytes() for array in arrays] + [state.n_unassigned]


class TestCompiledMerge:
    """``move_documents``, the runner's merge: the compiled ``cpd_move_docs``
    against the reference kernel's ``reassign_many`` + ``move_many``."""

    @staticmethod
    def _swept(graph, kernel, rng=11):
        sampler = _tiny_sampler(graph, sweep_kernel=kernel, rng=rng)
        sampler.sweep_documents()
        return sampler

    @needs_backend
    def test_matches_the_reference_merge(self, twitter_tiny):
        graph, _ = twitter_tiny
        samplers = [self._swept(graph, kernel) for kernel in ("reference", "compiled")]
        batch_rng = np.random.default_rng(4)
        doc_ids = batch_rng.choice(graph.n_documents, size=graph.n_documents // 2, replace=False)
        communities = batch_rng.integers(0, 4, size=len(doc_ids))
        topics = batch_rng.integers(0, 8, size=len(doc_ids))
        # a third of the batch keeps its assignment: those documents do not move
        keep = doc_ids[: len(doc_ids) // 3]
        communities[: len(keep)] = samplers[0].state.doc_community[keep]
        topics[: len(keep)] = samplers[0].state.doc_topic[keep]
        assert _merge_state(samplers[0]) == _merge_state(samplers[1])
        generator = samplers[1].rng.bit_generator.state
        for sampler in samplers:
            sampler.kernel.move_documents(doc_ids, communities, topics)
            sampler.state.check_consistency()
        assert samplers[1].rng.bit_generator.state == generator
        assert _merge_state(samplers[0]) == _merge_state(samplers[1])
        np.testing.assert_array_equal(samplers[1].state.doc_topic[doc_ids], topics)
        # the compiled merge left no dirty row behind: its cache rows are fresh
        assert not samplers[1].state._pi_dirty and not samplers[1].state._theta_dirty
        # the next sweeps draw alike
        for _ in range(2):
            for sampler in samplers:
                sampler.sweep_documents()
        assert _merge_state(samplers[0]) == _merge_state(samplers[1])

    @pytest.mark.filterwarnings("ignore:compiled sweep kernel unavailable")
    @pytest.mark.parametrize("kernel", SWEEP_KERNELS)
    @pytest.mark.parametrize(
        "case, message",
        [
            ("id past the end", "document ids out of range"),
            ("negative id", "document ids out of range"),
            ("duplicate id", "unique document ids"),
            ("duplicate id and bad topic", "unique document ids"),
            ("community past the end", "community ids out of range"),
            ("negative community", "community ids out of range"),
            ("topic past the end", "topic ids out of range"),
            ("unassigned document", "currently-assigned documents"),
            ("misaligned arrays", "must align"),
        ],
    )
    def test_rejected_input_changes_nothing(self, twitter_tiny, kernel, case, message):
        graph, _ = twitter_tiny
        sampler = self._swept(graph, kernel)
        n_docs = graph.n_documents
        doc_ids, communities, topics = [0, 5, 9], [1, 2, 3], [4, 5, 6]
        if case == "id past the end":
            doc_ids[1] = n_docs
        elif case == "negative id":
            doc_ids[2] = -1
        elif case == "duplicate id":
            doc_ids[2] = 0
        elif case == "duplicate id and bad topic":
            doc_ids[2], topics[0] = 0, 8
        elif case == "community past the end":
            communities[1] = 4
        elif case == "negative community":
            communities[0] = -1
        elif case == "topic past the end":
            topics[2] = 8
        elif case == "unassigned document":
            _community, topic = sampler.state.unassign(9)
            sampler.popularity.decrement(int(sampler._doc_time[9]), topic)
        else:
            topics = topics[:2]
        before = _merge_state(sampler)
        with pytest.raises(ValueError, match=message):
            sampler.kernel.move_documents(np.array(doc_ids), np.array(communities), np.array(topics))
        assert _merge_state(sampler) == before


def _exact_topic_weights(state, doc, community, length):
    """Eq. 13's content part per topic: the spec's log factors, ``fsum``-ed."""
    weights = np.empty(state.n_topics)
    words_beta = state.n_words * state.beta
    for z in range(state.n_topics):
        terms = [math.log(state.community_topic[community, z] + state.alpha)]
        span = slice(state._unique_indptr[doc], state._unique_indptr[doc + 1])
        for word, count in zip(state._unique_words[span], state._unique_counts[span]):
            gathered = state.topic_word[z, word] + state.beta
            terms += [math.log(gathered + i) for i in range(int(count))]
        total = state.topic_totals[z] + words_beta
        terms += [-math.log(total + j) for j in range(int(length))]
        weights[z] = math.fsum(terms)
    return weights


@needs_backend
class TestProductFormEq13:
    """The one-log-per-topic word likelihood equals the log sums it replaces."""

    @staticmethod
    def _sampler(graph, rng, **overrides):
        # no diffusion: Eq. 13 is then exactly its content part
        return _tiny_sampler(graph, rng=rng, model_diffusion=False, **overrides)

    @staticmethod
    def _assert_exact(sampler, docs):
        """Max-shifted weights agree to 1e-12, or 16 ulps of the largest
        weight when the weights are that large (a tiny beta puts every
        unseen word at ~ -690); the output is finite."""
        for doc, community in docs:
            fast = sampler.kernel.topic_log_weights(doc, community)
            exact = _exact_topic_weights(
                sampler.state, doc, community, sampler._doc_lengths[doc]
            )
            assert np.isfinite(fast).all()
            tolerance = max(1e-12, 16 * np.spacing(np.abs(exact).max()))
            np.testing.assert_allclose(
                fast - fast.max(), exact - exact.max(), rtol=0, atol=tolerance
            )

    @staticmethod
    def _assigned(sampler, docs):
        return [(doc, int(sampler.state.doc_community[doc])) for doc in docs]

    def test_matches_exact_log_sums(self, twitter_tiny):
        graph, _ = twitter_tiny
        sampler = self._sampler(graph, rng=4)
        sampler.sweep_documents()
        self._assert_exact(sampler, self._assigned(sampler, range(0, graph.n_documents, 3)))
        # with the document unassigned, as the sweep evaluates it
        for doc in range(0, graph.n_documents, 11):
            community, topic = sampler.state.unassign(doc)
            self._assert_exact(sampler, [(doc, community)])
            sampler.state.assign(doc, community, topic)

    @pytest.mark.parametrize("beta", (1e-300, 1e3))
    def test_extreme_beta(self, twitter_tiny, beta):
        graph, _ = twitter_tiny
        sampler = self._sampler(graph, rng=5, beta=beta)
        sampler.sweep_documents()
        self._assert_exact(sampler, self._assigned(sampler, range(0, graph.n_documents, 3)))

    def test_word_repeated_500_times(self, twitter_tiny):
        graph, _ = twitter_tiny
        sampler = self._sampler(graph, rng=8)
        word = int(graph.documents[0].words[0])
        (doc,) = sampler.append_documents(
            [np.full(500, word)],
            users=np.array([0]),
            timestamps=np.array([0]),
            communities=np.array([0]),
            topics=np.array([0]),
        )
        assert sampler.kernel.wm_counts[-1] == 500
        self._assert_exact(sampler, self._assigned(sampler, [doc, 0]))
        sampler.sweep_documents()
        self._assert_exact(sampler, self._assigned(sampler, [doc, 0]))

    def test_tiny_ratio_after_a_long_product(self, twitter_tiny):
        """At beta = 1e-300 an unseen word's first factor is ~1e-300 / n_z on
        its own; after 500 factors have shrunk the running product, it must
        still be taken exactly rather than multiplied into an underflow."""
        graph, _ = twitter_tiny
        sampler = self._sampler(graph, rng=8, beta=1e-300)
        repeated, unseen = 0, sampler.state.n_words - 1  # unseen is last in the CSR
        (doc,) = sampler.append_documents(
            [np.r_[np.full(500, repeated), np.full(2, unseen)]],
            users=np.array([0]),
            timestamps=np.array([0]),
        )
        sampler.state.topic_word[:, unseen] = 0.0
        self._assert_exact(sampler, [(doc, community) for community in range(4)])

    def test_non_integral_counts(self, twitter_tiny):
        graph, _ = twitter_tiny
        sampler = self._sampler(graph, rng=9)
        doc = next(
            d for d in range(graph.n_documents)
            if sampler.kernel.wm_indptr[d + 1] > sampler.kernel.wm_indptr[d]
        )
        community = int(sampler.state.doc_community[doc])
        state = sampler.state
        for word in (
            int(sampler.kernel.ws_words[sampler.kernel.ws_indptr[doc]]),
            int(sampler.kernel.wm_words[sampler.kernel.wm_indptr[doc]]),
        ):
            state.topic_word[2, word] += 0.5
            state.topic_word[5, word] += 1.25
        state.community_topic[community, 3] += 0.25
        state.topic_totals[1] += 0.5
        self._assert_exact(sampler, [(doc, community)])


@needs_backend
class TestFriendshipStatistics:
    """Eq. 14's per-user friendship statistics follow the user being swept."""

    @pytest.mark.parametrize("order", ("reversed", "shuffled"))
    def test_sweep_order_draws_like_reference(self, twitter_tiny, order):
        graph, _ = twitter_tiny
        ids = np.arange(graph.n_documents, dtype=np.int64)[::-1]
        if order == "shuffled":  # the user changes on almost every document
            ids = np.random.default_rng(3).permutation(graph.n_documents)
        samplers = [
            _tiny_sampler(graph, sweep_kernel=kernel, rng=23)
            for kernel in ("reference", "compiled")
        ]
        for _ in range(3):
            for sampler in samplers:
                sampler.kernel.sweep(ids)
                sampler.sample_lambdas()
            np.testing.assert_array_equal(
                samplers[0].state.doc_community, samplers[1].state.doc_community
            )
            np.testing.assert_array_equal(
                samplers[0].state.doc_topic, samplers[1].state.doc_topic
            )

    def test_standalone_call_builds_fresh(self, twitter_tiny):
        graph, _ = twitter_tiny
        sampler = _tiny_sampler(graph, rng=6)
        sampler.sweep_documents()
        sampler.sample_lambdas()
        state = sampler.state
        users = sampler._doc_user
        doc = int(np.argmax(np.diff(sampler.f_csr_indptr)[users]))
        user = int(users[doc])
        sampler.kernel.sweep(np.array([doc]))  # leaves this user's statistics
        # move a friend's document, so statistics held over would be stale
        friend = int(sampler.f_csr_neighbor[sampler.f_csr_indptr[user]])
        friend_doc = int(np.flatnonzero(users == friend)[0])
        old_community, topic = state.unassign(friend_doc)
        state.assign(friend_doc, (old_community + 1) % state.n_communities, topic)
        for candidate in range(state.n_topics):
            np.testing.assert_allclose(
                sampler.kernel.community_log_weights(doc, candidate),
                sampler.reference_community_log_weights(doc, candidate),
                rtol=1e-10,
                atol=1e-10,
            )

    def test_two_worker_runner_draws_like_reference(self, twitter_tiny, monkeypatch):
        from repro.core import CPDModel, FitOptions
        from repro.parallel import ParallelEStepRunner
        from repro.parallel import runner as runner_module
        from repro.parallel.scheduler import WorkloadModel

        # a timed workload model would let the document split vary run to run
        fixed = WorkloadModel(1e-4, 1e-6, 1e-6)
        monkeypatch.setattr(runner_module, "measure_workload_model", lambda _sampler: fixed)
        graph, _ = twitter_tiny
        config = CPDConfig(n_communities=4, n_topics=8, n_iterations=4, rho=0.5, alpha=0.5)
        results = []
        for kernel in ("reference", "compiled"):
            kernel_config = config.with_overrides(sweep_kernel=kernel)
            with ParallelEStepRunner(graph, kernel_config, n_workers=2, rng=0) as runner:
                results.append(
                    CPDModel(kernel_config, rng=5).fit(
                        graph, FitOptions(document_sweeper=runner)
                    )
                )
        np.testing.assert_array_equal(results[0].doc_community, results[1].doc_community)
        np.testing.assert_array_equal(results[0].doc_topic, results[1].doc_topic)


def _eq14_scaled_total(sampler, doc, topic):
    """The scaled Eq. 14 total for ``doc`` (unassigned) and ``topic`` with
    every content product kept in linear space: sum_k w_k exp(s_k - max s),
    with w_k the content product and s_k the reference log-weight less that
    product's log, taken as a sum of logs so it stays finite where the
    product underflows."""
    state = sampler.state
    user = int(sampler._doc_user[doc])
    base = state.user_community[user] + state.rho
    gathered = state.community_topic[:, topic] + state.alpha
    totals = state.community_totals + state.n_topics * state.alpha
    scales = sampler.reference_community_log_weights(doc, topic) - (
        np.log(base) + np.log(gathered) - np.log(totals)
    )
    return float(np.sum(base * gathered / totals * np.exp(scales - scales.max())))


@needs_backend
class TestLinearSpaceDraws:
    """The sweep draws each conditional from linear weights w and log
    scales s (``draw_scaled``), as the reference draws from log(w) + s."""

    @staticmethod
    def _pair(graph, rng, **overrides):
        return [
            _tiny_sampler(graph, sweep_kernel=kernel, rng=rng, **overrides)
            for kernel in ("reference", "compiled")
        ]

    @staticmethod
    def _sweep_alike(samplers, n_sweeps):
        for _ in range(n_sweeps):
            for sampler in samplers:
                sampler.sweep_documents()
            np.testing.assert_array_equal(
                samplers[0].state.doc_topic, samplers[1].state.doc_topic
            )
            np.testing.assert_array_equal(
                samplers[0].state.doc_community, samplers[1].state.doc_community
            )
        assert samplers[0].rng.bit_generator.state == samplers[1].rng.bit_generator.state

    def test_tiny_beta_draws_like_reference(self, twitter_tiny):
        """At beta = 1e-300 each unseen word moves ~ -690 into s[z], so the
        topic scales spread over hundreds and most terms underflow."""
        graph, _ = twitter_tiny
        self._sweep_alike(self._pair(graph, rng=31, beta=1e-300), n_sweeps=4)

    def test_underflowing_total_draws_in_the_log_domain(self, twitter_tiny):
        """Tiny priors leave a subnormal or zero content product where the
        friendship and diffusion terms, at lambda = delta = 1e3, put the
        largest scale, so a total over those products is not a normal
        double; the builder takes such a product by its logs instead."""
        graph, _ = twitter_tiny
        samplers = self._pair(graph, rng=2, rho=1e-300, alpha=1e-300)
        for sampler in samplers:
            sampler.sweep_documents()
            sampler.lambdas = np.full(sampler.n_friend_links, 1e3)
            sampler.deltas = np.full(sampler.n_diff_links, 1e3)
        self._sweep_alike(samplers, n_sweeps=6)
        # the regime is reached: some scaled total is not a normal double
        sampler = samplers[0]
        state = sampler.state
        subnormal = 0
        for doc in range(graph.n_documents):
            community, topic = state.unassign(doc)
            subnormal += sum(
                not _eq14_scaled_total(sampler, doc, candidate) >= np.finfo(float).tiny
                for candidate in range(state.n_topics)
            )
            state.assign(doc, community, topic)
        assert subnormal

    def test_underflowing_content_product_draws_like_reference(self, twitter_tiny):
        """At rho = alpha = 1e-300 the Eq. 14 content product of an empty
        (user, community) and (community, topic) cell is ~1e-600, 0 as a
        double, while lambda = delta = 1e6 can give that community the
        largest scale; taken by its logs it keeps the reference's weight
        (before, the first sweep drew differently)."""
        graph, _ = twitter_tiny
        samplers = self._pair(graph, rng=2, rho=1e-300, alpha=1e-300)
        for sampler in samplers:
            sampler.lambdas = np.full(sampler.n_friend_links, 1e6)
            sampler.deltas = np.full(sampler.n_diff_links, 1e6)
        self._sweep_alike(samplers, n_sweeps=6)

    @pytest.mark.parametrize("fixed", (False, True))
    def test_uniforms_per_document(self, twitter_tiny, fixed):
        """Two uniforms per document, or one with fixed communities: the
        Generator advances exactly as ``random()`` that many times."""
        graph, _ = twitter_tiny
        config = CPDConfig(n_communities=4, n_topics=8, rho=0.5, alpha=0.5)
        communities = np.arange(graph.n_documents) % 4 if fixed else None
        sampler = CPDSampler(
            graph, config, DiffusionParameters.initial(4, 8), rng=17,
            fixed_communities=communities,
        )
        for _ in range(2):
            replay = np.random.default_rng()
            replay.bit_generator.state = sampler.rng.bit_generator.state
            stats = sampler.kernel.sweep()
            replay.random((1 if fixed else 2) * graph.n_documents)
            assert stats.draws == (1 if fixed else 2) * graph.n_documents
            assert sampler.rng.bit_generator.state == replay.bit_generator.state

    def test_fold_matches_the_topic_major_spec(self, twitter_tiny):
        """The Eq. 13 outgoing-link fold read from eta's own [k][d][z] layout
        equals, bit for bit, the fold summed per topic over the [z][c][d]
        table: theta[d, z] sum_k (pi_u[k] theta[k, z]) eta[k, d, z], each
        (d, z) summed over k in order."""
        graph, _ = twitter_tiny
        sampler = _tiny_sampler(graph, rng=3)
        sampler.sweep_documents()
        sampler.sample_lambdas()
        sampler.sample_deltas()
        sampler.params.eta = sampler.aggregate_eta()
        state, kernel, eta = sampler.state, sampler.kernel, sampler.params.eta
        n_communities, n_topics = state.n_communities, state.n_topics
        folding = np.flatnonzero(np.diff(sampler.dout_csr_indptr) > 0)
        assert len(folding)
        for doc in folding:
            kernel.topic_log_weights(doc, int(state.doc_community[doc]))
            folded = kernel._scratch["scratch_folded"].reshape(n_communities, n_topics)
            theta = state.theta_hat_view()
            weighted = state.pi_hat_view()[sampler._doc_user[doc]][:, None] * theta
            spec = np.empty((n_communities, n_topics))
            for z in range(n_topics):
                by_topic = np.zeros(n_communities)
                for k in range(n_communities):
                    by_topic = by_topic + weighted[k, z] * eta[k, :, z]
                spec[:, z] = theta[:, z] * by_topic
            np.testing.assert_array_equal(folded, spec)


class TestSourceHygiene:
    def test_c_source_compiles_without_warnings(self, tmp_path):
        """The generated translation unit is warning-free C99 under
        -Wall -Wextra, so a new warning fails here, not in a user's build."""
        try:
            compiler = _compiled._find_compiler()
        except _compiled.CompiledBackendUnavailable:
            pytest.skip("no C toolchain on this host")
        source = tmp_path / "cpd_sweep.c"
        source.write_text(_compiled._C_SOURCE, encoding="utf-8")
        completed = subprocess.run(
            [compiler, "-std=c99", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", str(source)],
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
