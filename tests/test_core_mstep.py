"""The lean M-step computes each quantity once and reuses it exactly.

The iteration trace scores the M-step's own rows of E with the fitted
weights and reuses the friendship dots ``sample_lambdas`` returns; both
must equal a recompute from the sampler (``friendship_dots`` /
``diffusion_logits``) bit for bit. Negatives come back as one int64 array.
The gather and call-count pins run the numpy spec (the reference kernel);
the compiled kernel computes the same tilts and components in C.
"""

import numpy as np
import pytest

from repro.core import CPDConfig, CPDModel, _compiled
from repro.core.gibbs import CPDSampler
from repro.core.parameters import DiffusionParameters
from repro.diffusion import negative_sampling
from repro.diffusion.negative_sampling import (
    _first_occurrences,
    _sorted_member,
    sample_negative_diffusion_pairs,
)
from repro.sampling.polya_gamma import sigmoid

CONFIG = CPDConfig(
    n_communities=4, n_topics=8, n_iterations=4, rho=0.5, alpha=0.5,
    sweep_kernel="compiled",
)
#: the numpy spec of the tilts and components (the reference kernel)
NUMPY_CONFIG = CONFIG.with_overrides(sweep_kernel="reference")


def recomputed_trace(graph, monkeypatch):
    """Fit on ``graph``, recording at each trace entry the mean link
    probabilities recomputed from that iteration's sampler."""
    recomputed = []
    trace_entry = CPDModel._trace_entry

    def recording(self, iteration, started, sampler, **kwargs):
        recomputed.append(
            (
                float(sigmoid(sampler.friendship_dots()).mean()),
                float(sigmoid(sampler.diffusion_logits()).mean()),
            )
        )
        return trace_entry(self, iteration, started, sampler, **kwargs)

    monkeypatch.setattr(CPDModel, "_trace_entry", recording)
    result = CPDModel(CONFIG, rng=3).fit(graph)
    return result, recomputed


@pytest.mark.filterwarnings("ignore:compiled sweep kernel unavailable")
class TestTraceReuse:
    def test_probabilities_equal_a_recompute(self, twitter_tiny, monkeypatch):
        graph, _ = twitter_tiny
        result, recomputed = recomputed_trace(graph, monkeypatch)
        assert len(result.trace) == len(recomputed) == CONFIG.n_iterations
        for entry, (friendship, diffusion) in zip(result.trace, recomputed):
            assert entry.mean_friendship_probability == friendship
            assert entry.mean_diffusion_probability == diffusion

    @staticmethod
    def _components_calls(graph, config, monkeypatch):
        calls = []
        components = CPDSampler.diffusion_components

        def counting(self, *args, **kwargs):
            calls.append(len(args[0]))
            return components(self, *args, **kwargs)

        monkeypatch.setattr(CPDSampler, "diffusion_components", counting)
        CPDModel(config, rng=3).fit(graph)
        return calls

    def test_two_components_calls_per_iteration(self, twitter_tiny, monkeypatch):
        """The numpy path: one for the Eq. 16 draws, one for the M-step's
        whole design."""
        graph, _ = twitter_tiny
        calls = self._components_calls(graph, NUMPY_CONFIG, monkeypatch)
        assert len(calls) == 2 * CONFIG.n_iterations
        n_links = graph.n_diffusion_links
        assert calls[0::2] == [n_links] * CONFIG.n_iterations
        assert all(n > n_links for n in calls[1::2])

    def test_compiled_draws_tilt_without_components_calls(self, twitter_tiny, monkeypatch):
        """The compiled kernel tilts the Eq. 16 draws in C: the M-step's
        design is the one ``diffusion_components`` call per iteration."""
        graph, _ = twitter_tiny
        calls = self._components_calls(graph, CONFIG, monkeypatch)
        if not _compiled.backend_status()[0]:
            assert len(calls) == 2 * CONFIG.n_iterations
            return
        assert len(calls) == CONFIG.n_iterations
        assert all(n > graph.n_diffusion_links for n in calls)

    def test_compiled_fit_uses_the_compiled_solver(self, twitter_tiny, monkeypatch):
        graph, _ = twitter_tiny
        solved = []
        solve = _compiled.logistic_newton
        monkeypatch.setattr(
            _compiled, "logistic_newton", lambda *a, **k: solved.append(1) or solve(*a, **k)
        )
        CPDModel(CONFIG, rng=3).fit(graph)
        expected = CONFIG.n_iterations if _compiled.backend_status()[0] else 0
        assert len(solved) == expected


@pytest.mark.filterwarnings("ignore:compiled sweep kernel unavailable")
class TestGathers:
    def test_friendship_dots_equal_the_fancy_indexed_einsum(self, twitter_tiny):
        """The numpy spec's gathers; the compiled tilts' parity with it is
        pinned in test_core_link_kernels.py."""
        graph, _ = twitter_tiny
        sampler = CPDSampler(
            graph, NUMPY_CONFIG, DiffusionParameters.initial(4, 8), rng=0
        )
        sampler.sweep_documents()
        pi = sampler.state.pi_hat_view()
        np.testing.assert_array_equal(
            sampler.friendship_dots(),
            np.einsum("ij,ij->i", pi[sampler.f_src], pi[sampler.f_tgt]),
        )


class TestNegativesArray:
    def test_shape_dtype_and_ranges(self, twitter_tiny):
        graph, _ = twitter_tiny
        negatives = sample_negative_diffusion_pairs(graph, 80, 5)
        assert negatives.shape == (80, 3) and negatives.dtype == np.int64
        source, target, timestamps = negatives.T
        n_docs = graph.n_documents
        assert ((0 <= source) & (source < n_docs)).all()
        assert ((0 <= target) & (target < n_docs)).all()
        max_time = max(doc.timestamp for doc in graph.documents)
        assert ((0 <= timestamps) & (timestamps <= max_time)).all()

    @pytest.mark.parametrize("seed", range(6))
    def test_sorted_member_matches_isin(self, seed):
        rng = np.random.default_rng(seed)
        universe = int(rng.integers(1, 400))
        sorted_keys = np.unique(rng.integers(0, universe, int(rng.integers(0, 300))))
        keys = rng.integers(-5, universe + 5, int(rng.integers(0, 500)))
        np.testing.assert_array_equal(
            _sorted_member(keys, sorted_keys), np.isin(keys, sorted_keys)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_first_occurrences_match_unique(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, int(rng.integers(1, 200)), int(rng.integers(0, 400)))
        distinct, first = _first_occurrences(keys)
        expected_distinct, expected_first = np.unique(keys, return_index=True)
        np.testing.assert_array_equal(distinct, expected_distinct)
        np.testing.assert_array_equal(first, expected_first)

    def test_sorted_member_empty_tables(self):
        keys = np.array([3, 1, 2], dtype=np.int64)
        assert not _sorted_member(keys, np.zeros(0, dtype=np.int64)).any()
        assert _sorted_member(np.zeros(0, dtype=np.int64), keys).shape == (0,)

    def test_rejection_sort_skipped_after_last_round(self, twitter_tiny, monkeypatch):
        """A request the numpy spec meets in one round sorts the forbidden
        keys never (the C path, which runs whenever the backend loads, keeps
        them in a hash set and sorts nothing)."""
        graph, _ = twitter_tiny
        table = negative_sampling.build_word_document_index(graph)
        monkeypatch.setenv(_compiled.DISABLE_ENV, "1")
        sorts = []
        sort = np.sort
        monkeypatch.setattr(
            negative_sampling.np, "sort", lambda *a, **k: sorts.append(1) or sort(*a, **k)
        )
        negatives = sample_negative_diffusion_pairs(graph, 5, 1, word_index=table)
        assert len(negatives) == 5
        assert len(sorts) == 1  # the draw-order sort of the accepted keys
