"""The compiled link kernels: PG tilts, Eq. 5 components, the persistent ctx.

``CompiledKernel`` computes the Eq. 15/16 tilts (``cpd_link_tilts``) and
the Eq. 5 community and popularity components (``cpd_link_components``)
from one ``CpdCtx`` it keeps for the sampler's life, and draws the PG
variables from those tilts. Two contracts are pinned here:

* parity with the numpy spec (the sampler's own numpy bodies, run through
  a ``ReferenceKernel``) at rtol 1e-12, across model designs and with an
  unassigned source document; the draws read the Generator as
  ``sample_pg_array`` does;
* the persistent ctx never goes stale: after every event that replaces
  an array the ctx points at, the kernel answers exactly as a kernel
  built fresh on the same sampler.
"""

import numpy as np
import pytest

from repro.core import CPDConfig, DiffusionParameters
from repro.core import _compiled
from repro.core.gibbs import CPDSampler
from repro.core.kernel import DIFFUSION, FRIENDSHIP, CompiledKernel, ReferenceKernel
from repro.diffusion.negative_sampling import sample_negative_diffusion_pairs
from repro.parallel.runner import _refresh_helper
from repro.sampling.polya_gamma import sample_pg_array

pytestmark = pytest.mark.skipif(
    not _compiled.backend_status()[0], reason="no C toolchain on this host"
)

DESIGNS = {
    "profile": {},
    "similarity": {"heterogeneity": False},
    "no_factors": {"use_topic_factor": False, "use_individual_factor": False},
    "raw_popularity": {"popularity_mode": "raw"},
    "log_popularity": {"popularity_mode": "log"},
}


def _mixed_sampler(graph, rng=0, **overrides):
    config = CPDConfig(
        n_communities=4, n_topics=8, rho=0.5, alpha=0.5, sweep_kernel="compiled", **overrides
    )
    sampler = CPDSampler(graph, config, DiffusionParameters.initial(4, 8), rng=rng)
    assert isinstance(sampler.kernel, CompiledKernel)
    sampler.sweep_documents()
    sampler.sample_lambdas()
    sampler.sample_deltas()
    sampler.params.eta = sampler.aggregate_eta()
    sampler.params.nu = np.array([0.3, -0.2, 0.1, 0.05])
    sampler.params.comm_weight, sampler.params.pop_weight = 40.0, 2.5
    sampler.params.bias = -1.5
    return sampler


def _batch(sampler, graph):
    """All of E, then negatives: the M-step's design rows."""
    negatives = sample_negative_diffusion_pairs(graph, 60, 4, allow_fewer=True)
    return (
        np.concatenate([sampler.e_src, negatives[:, 0]]),
        np.concatenate([sampler.e_tgt, negatives[:, 1]]),
        np.concatenate([sampler.e_time, negatives[:, 2]]),
    )


def numpy_spec(sampler, compute):
    """``compute()`` with the sampler's numpy bodies instead of the C ones."""
    compiled = sampler.kernel
    sampler.kernel = ReferenceKernel(sampler)
    try:
        return compute()
    finally:
        sampler.kernel = compiled


@pytest.mark.parametrize("design", sorted(DESIGNS))
class TestParityWithNumpySpec:
    def test_friendship_tilts(self, twitter_tiny, design):
        graph, _ = twitter_tiny
        sampler = _mixed_sampler(graph, **DESIGNS[design])
        expected = numpy_spec(sampler, sampler.friendship_dots)
        np.testing.assert_allclose(sampler.friendship_dots(), expected, rtol=1e-12)
        start, stop = 17, 130
        np.testing.assert_allclose(
            sampler.kernel.link_tilts(FRIENDSHIP, start, stop),
            expected[start:stop],
            rtol=1e-12,
        )

    def test_diffusion_tilts(self, twitter_tiny, design):
        graph, _ = twitter_tiny
        sampler = _mixed_sampler(graph, **DESIGNS[design])
        n = sampler.n_diff_links
        expected = numpy_spec(sampler, lambda: sampler._diffusion_tilts(0, n))
        tilts = sampler.kernel.link_tilts(DIFFUSION, 0, n)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(tilts, expected, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(
            sampler.kernel.link_tilts(DIFFUSION, 5, 40), tilts[5:40], rtol=1e-12
        )

    def test_components(self, twitter_tiny, design):
        graph, _ = twitter_tiny
        sampler = _mixed_sampler(graph, **DESIGNS[design])
        batch = _batch(sampler, graph)
        expected = numpy_spec(sampler, lambda: sampler.diffusion_components(*batch))
        got = sampler.diffusion_components(*batch)
        assert set(got) == set(expected)
        for name in ("community", "popularity"):
            np.testing.assert_allclose(got[name], expected[name], rtol=1e-12)
        np.testing.assert_array_equal(got["features"], expected["features"])
        if not sampler.config.use_topic_factor:
            np.testing.assert_array_equal(got["popularity"], 0.0)

    def test_unassigned_source_reads_as_topic_zero(self, twitter_tiny, design):
        graph, _ = twitter_tiny
        sampler = _mixed_sampler(graph, **DESIGNS[design])
        source = int(sampler.e_src[0])
        _, topic = sampler.state.unassign(source)
        sampler.popularity.decrement(int(sampler._doc_time[source]), topic)
        batch = _batch(sampler, graph)
        expected = numpy_spec(sampler, lambda: sampler.diffusion_components(*batch))
        got = sampler.diffusion_components(*batch)
        for name in ("community", "popularity"):
            np.testing.assert_allclose(got[name], expected[name], rtol=1e-12)
        n = sampler.n_diff_links
        expected = numpy_spec(sampler, lambda: sampler._diffusion_tilts(0, n))
        np.testing.assert_allclose(
            sampler.kernel.link_tilts(DIFFUSION, 0, n),
            expected,
            rtol=1e-12,
            atol=1e-12 * np.abs(expected).max(),
        )

    def test_draws_read_the_generator_like_sample_pg_array(self, twitter_tiny, design):
        graph, _ = twitter_tiny
        sampler = _mixed_sampler(graph, **DESIGNS[design])
        n_f, n_e = sampler.n_friend_links, sampler.n_diff_links
        for which, start, stop, spec in (
            (FRIENDSHIP, 0, n_f, lambda: sampler._friendship_tilts(0, n_f)),
            (FRIENDSHIP, 30, 90, lambda: sampler._friendship_tilts(30, 90)),
            (DIFFUSION, 0, n_e, lambda: sampler._diffusion_tilts(0, n_e)),
            (DIFFUSION, 10, 60, lambda: sampler._diffusion_tilts(10, 60)),
        ):
            compiled_rng = np.random.default_rng(99)
            numpy_rng = np.random.default_rng(99)
            draws, tilts = sampler.kernel.draw_pg(which, start, stop, compiled_rng)
            expected_tilts = numpy_spec(sampler, spec)
            expected = sample_pg_array(expected_tilts, numpy_rng)
            scale = np.abs(expected_tilts).max()
            np.testing.assert_allclose(tilts, expected_tilts, rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_allclose(draws, expected, rtol=1e-10)
            assert compiled_rng.bit_generator.state == numpy_rng.bit_generator.state


class TestSamplerEntryPoints:
    def test_sample_lambdas_returns_the_drawn_tilts(self, twitter_tiny):
        graph, _ = twitter_tiny
        sampler = _mixed_sampler(graph)
        dots = sampler.sample_lambdas()
        np.testing.assert_array_equal(dots, sampler.friendship_dots())
        assert sampler.lambdas.shape == dots.shape and np.all(sampler.lambdas > 0)

    def test_empty_ranges_draw_nothing(self, twitter_tiny):
        graph, _ = twitter_tiny
        sampler = _mixed_sampler(graph)
        before = sampler.rng.bit_generator.state
        assert sampler.draw_lambda_range(5, 5).shape == (0,)
        assert sampler.draw_delta_range(7, 7).shape == (0,)
        assert sampler.rng.bit_generator.state == before

    def test_out_of_range_requests_are_refused(self, twitter_tiny):
        graph, _ = twitter_tiny
        sampler = _mixed_sampler(graph)
        kernel = sampler.kernel
        with pytest.raises(ValueError, match="link range"):
            kernel.link_tilts(FRIENDSHIP, 0, sampler.n_friend_links + 1)
        with pytest.raises(ValueError, match="link range"):
            kernel.draw_pg(DIFFUSION, -1, 3, sampler.rng)
        ids = np.array([0, graph.n_documents], dtype=np.int64)
        with pytest.raises(IndexError):
            kernel.link_components(ids, ids[::-1].copy(), np.zeros(2, dtype=np.int64))
        bad_time = np.array([0, sampler.popularity.n_time_buckets], dtype=np.int64)
        with pytest.raises(IndexError):
            kernel.link_components(np.zeros(2, np.int64), np.ones(2, np.int64), bad_time)

    def test_non_finite_tilt_raises(self, twitter_tiny):
        graph, _ = twitter_tiny
        sampler = _mixed_sampler(graph)
        sampler.params.bias = float("inf")
        with pytest.raises(ValueError, match="finite"):
            sampler.sample_deltas()


# ----------------------------------------------------------- staleness


def _answers(kernel, sampler, docs):
    """Everything the kernel computes from its ctx, for a set of documents."""
    state = sampler.state
    out = []
    for doc in docs:
        community = max(int(state.doc_community[doc]), 0)
        topic = max(int(state.doc_topic[doc]), 0)
        out.append(kernel.topic_log_weights(doc, community))
        out.append(kernel.community_log_weights(doc, topic))
    out.append(kernel.link_tilts(FRIENDSHIP, 0, sampler.n_friend_links))
    out.append(kernel.link_tilts(DIFFUSION, 0, sampler.n_diff_links))
    out.extend(kernel.link_components(sampler.e_src, sampler.e_tgt, sampler.e_time))
    return out


def _assert_fresh(sampler, docs):
    """The sampler's long-lived kernel answers as one built now."""
    fresh = CompiledKernel(sampler)
    for got, want in zip(_answers(sampler.kernel, sampler, docs), _answers(fresh, sampler, docs)):
        np.testing.assert_array_equal(got, want)


def _event_m_step(sampler, graph):
    sampler.params.eta = np.random.default_rng(1).dirichlet(np.ones(4 * 4 * 8)).reshape(4, 4, 8)
    sampler.params.nu = np.array([0.5, 0.1, -0.3, 0.2])
    sampler.params.comm_weight, sampler.params.pop_weight, sampler.params.bias = 12.0, 0.7, 0.4


def _event_draws(sampler, graph):
    sampler.sample_lambdas()
    sampler.sample_deltas()


def _event_popularity_rebuild(sampler, graph):
    state = sampler.state
    doc = int(np.flatnonzero(state.doc_topic >= 0)[0])
    community, topic = state.unassign(doc)
    state.assign(doc, community, (topic + 1) % state.n_topics)  # popularity left stale
    sampler._build_popularity()


def _event_load_snapshot(sampler, graph):
    snapshot = sampler.export_snapshot()
    rng = np.random.default_rng(5)
    n_docs = sampler.state.n_docs
    snapshot["doc_topic"] = rng.integers(0, 8, n_docs)
    snapshot["doc_community"] = rng.integers(0, 4, n_docs)
    snapshot["lambdas"] = snapshot["lambdas"] * 1.5
    sampler.load_snapshot(snapshot)


def _event_append_documents(sampler, graph):
    sampler.append_documents(
        [np.array([0, 1, 1, 2]), np.array([3, 3, 7])],
        users=np.array([0, 1]),
        timestamps=np.array([5, 6]),
        communities=np.array([1, 2]),
        topics=np.array([0, 3]),
    )


def _event_append_links(sampler, graph):
    n_docs = sampler.state.n_docs
    sampler.append_diffusion_links(
        np.array([0, 3, 5]), np.array([n_docs - 1, 1, 2]), np.array([1, 2, 3])
    )


def _event_helper_refresh(sampler, graph):
    source = _mixed_sampler(graph, rng=8)
    source.params.eta = source.aggregate_eta()
    _refresh_helper(sampler, source, seed=3)


def _event_fixed_communities(sampler, graph):
    sampler.fixed_communities = np.zeros(sampler.state.n_docs, dtype=np.int64)


EVENTS = {
    "m_step_swap": _event_m_step,
    "augmentation_draws": _event_draws,
    "build_popularity": _event_popularity_rebuild,
    "load_snapshot": _event_load_snapshot,
    "append_documents": _event_append_documents,
    "append_diffusion_links": _event_append_links,
    "helper_refresh": _event_helper_refresh,
    "fixed_communities": _event_fixed_communities,
}


class TestPersistentContext:
    @pytest.mark.parametrize("event", sorted(EVENTS))
    def test_ctx_follows_replaced_arrays(self, twitter_tiny, event):
        graph, _ = twitter_tiny
        sampler = _mixed_sampler(graph, rng=2)
        docs = range(0, graph.n_documents, 9)
        _answers(sampler.kernel, sampler, docs)  # bind the ctx to today's arrays
        EVENTS[event](sampler, graph)
        _assert_fresh(sampler, docs)
        # and the next sweep runs on the replaced arrays
        sampler.sweep_documents()
        sampler.state.check_consistency()
        _assert_fresh(sampler, docs)

    def test_sweep_after_events_matches_a_fresh_kernel(self, twitter_tiny):
        """Two matched samplers: one keeps its kernel across every event,
        the other gets a new kernel after each; the sweeps stay identical."""
        graph, _ = twitter_tiny
        kept, rebuilt = (_mixed_sampler(graph, rng=4) for _ in range(2))
        for name in sorted(EVENTS):
            if name in ("helper_refresh", "fixed_communities"):
                continue  # the helper's seed / frozen communities: covered above
            for sampler in (kept, rebuilt):
                EVENTS[name](sampler, graph)
            rebuilt.kernel = CompiledKernel(rebuilt)
            for sampler in (kept, rebuilt):
                sampler.sweep_documents()
                sampler.sample_lambdas()
                sampler.sample_deltas()
            np.testing.assert_array_equal(kept.state.doc_topic, rebuilt.state.doc_topic)
            np.testing.assert_array_equal(
                kept.state.doc_community, rebuilt.state.doc_community
            )
            np.testing.assert_array_equal(kept.lambdas, rebuilt.lambdas)
            np.testing.assert_array_equal(kept.deltas, rebuilt.deltas)
        assert kept.rng.bit_generator.state == rebuilt.rng.bit_generator.state
