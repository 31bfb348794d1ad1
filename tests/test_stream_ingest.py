"""Tests for the streaming append paths, the refresher and the ingestor."""

import numpy as np
import pytest

from repro.core import _compiled
from repro.core.gibbs import CPDSampler
from repro.serving import ProfileStore
from repro.stream import (
    DocumentArrival,
    IncrementalRefresher,
    LinkArrival,
    MicroBatchIngestor,
)


def _arrivals(graph, rng, n_docs=6):
    """Plausible new documents: word ids resampled from existing documents."""
    documents, users, timestamps = [], [], []
    for index in range(n_docs):
        source = graph.documents[int(rng.integers(0, graph.n_documents))]
        words = rng.choice(source.words, size=max(2, len(source.words)), replace=True)
        documents.append(np.asarray(words, dtype=np.int64))
        users.append(int(rng.integers(0, graph.n_users)))
        timestamps.append(int(source.timestamp))
    return documents, np.asarray(users), np.asarray(timestamps)


@pytest.fixture()
def warm(twitter_tiny, fitted_cpd):
    graph, _ = twitter_tiny
    return graph, CPDSampler.warm_start(graph, fitted_cpd, rng=11)


class TestWarmStart:
    def test_counts_match_the_fitted_assignments(self, warm, fitted_cpd):
        _graph, sampler = warm
        np.testing.assert_array_equal(
            sampler.state.doc_community, fitted_cpd.doc_community
        )
        np.testing.assert_array_equal(sampler.state.doc_topic, fitted_cpd.doc_topic)
        sampler.state.check_consistency()

    def test_estimators_match_the_fit(self, warm, fitted_cpd):
        _graph, sampler = warm
        np.testing.assert_allclose(sampler.state.pi_hat(), fitted_cpd.pi)
        np.testing.assert_allclose(sampler.state.theta_hat(), fitted_cpd.theta)


class TestAppendDocuments:
    def test_grows_state_and_keeps_counts_consistent(self, warm, rng):
        graph, sampler = warm
        documents, users, timestamps = _arrivals(graph, rng)
        communities = rng.integers(0, sampler.config.n_communities, size=len(documents))
        topics = rng.integers(0, sampler.config.n_topics, size=len(documents))
        new_ids = sampler.append_documents(
            documents, users, timestamps, communities=communities, topics=topics
        )
        assert new_ids.tolist() == list(
            range(graph.n_documents, graph.n_documents + len(documents))
        )
        assert sampler.state.n_docs == graph.n_documents + len(documents)
        np.testing.assert_array_equal(sampler.state.doc_community[new_ids], communities)
        sampler.state.check_consistency()

    def test_appended_docs_can_be_swept(self, warm, rng):
        graph, sampler = warm
        documents, users, timestamps = _arrivals(graph, rng)
        communities = rng.integers(0, sampler.config.n_communities, size=len(documents))
        topics = rng.integers(0, sampler.config.n_topics, size=len(documents))
        new_ids = sampler.append_documents(
            documents, users, timestamps, communities=communities, topics=topics
        )
        sampler.sweep_documents(new_ids)
        sampler.state.check_consistency()
        assert np.all(sampler.state.doc_topic[new_ids] >= 0)

    def test_unknown_user_rejected(self, warm, rng):
        graph, sampler = warm
        documents, users, timestamps = _arrivals(graph, rng, n_docs=1)
        with pytest.raises(ValueError):
            sampler.append_documents(documents, [graph.n_users], timestamps)

    def test_out_of_vocabulary_words_rejected(self, warm):
        graph, sampler = warm
        with pytest.raises(ValueError):
            sampler.append_documents(
                [np.asarray([graph.n_words], dtype=np.int64)], [0], [0]
            )

    def test_assignment_arrays_must_come_together(self, warm, rng):
        graph, sampler = warm
        documents, users, timestamps = _arrivals(graph, rng, n_docs=2)
        with pytest.raises(ValueError):
            sampler.append_documents(
                documents, users, timestamps, communities=np.zeros(2, dtype=np.int64)
            )

    def test_failed_append_leaves_the_sampler_untouched(self, warm, rng):
        """Validation errors must not half-grow the state (no poison appends)."""
        graph, sampler = warm
        documents, users, timestamps = _arrivals(graph, rng, n_docs=2)
        bad_calls = [
            dict(communities=np.zeros(2, dtype=np.int64)),  # topics missing
            dict(
                communities=np.full(2, sampler.config.n_communities, dtype=np.int64),
                topics=np.zeros(2, dtype=np.int64),
            ),  # community out of range
        ]
        for kwargs in bad_calls:
            with pytest.raises(ValueError):
                sampler.append_documents(documents, users, timestamps, **kwargs)
            assert sampler.state.n_docs == graph.n_documents
            assert len(sampler._doc_user) == graph.n_documents
        sampler.sweep_documents(np.arange(4))  # still fully functional
        sampler.state.check_consistency()

    def test_popularity_is_maintained_incrementally(self, warm, rng):
        graph, sampler = warm
        before = sampler.popularity._counts.copy()
        documents, users, timestamps = _arrivals(graph, rng, n_docs=4)
        communities = rng.integers(0, sampler.config.n_communities, size=4)
        topics = rng.integers(0, sampler.config.n_topics, size=4)
        sampler.append_documents(
            documents, users, timestamps, communities=communities, topics=topics
        )
        expected = before.copy()
        np.add.at(expected, (timestamps, topics), 1.0)
        np.testing.assert_array_equal(sampler.popularity._counts, expected)

    def test_append_beyond_known_time_buckets_grows_the_table(self, warm, rng):
        graph, sampler = warm
        new_bucket = sampler.popularity.n_time_buckets + 3
        words = np.asarray(graph.documents[0].words, dtype=np.int64)
        sampler.append_documents(
            [words],
            [0],
            [new_bucket],
            communities=np.zeros(1, dtype=np.int64),
            topics=np.zeros(1, dtype=np.int64),
        )
        assert sampler.popularity.n_time_buckets == new_bucket + 1
        assert sampler.popularity.count(new_bucket, 0) == 1.0


class TestAppendLinks:
    def test_links_join_the_csr_layout(self, warm, rng):
        graph, sampler = warm
        before = sampler.n_diff_links
        sources = np.asarray([0, 1], dtype=np.int64)
        targets = np.asarray([2, 3], dtype=np.int64)
        times = np.asarray([0, 1], dtype=np.int64)
        sampler.append_diffusion_links(sources, targets, times)
        assert sampler.n_diff_links == before + 2
        assert sampler.d_csr_indptr[-1] == 2 * sampler.n_diff_links
        assert len(sampler.deltas) == sampler.n_diff_links
        assert len(sampler.e_features) == sampler.n_diff_links
        sampler.sweep_documents(np.asarray([0, 1, 2, 3]))
        sampler.state.check_consistency()

    def test_unknown_endpoints_rejected(self, warm):
        _graph, sampler = warm
        with pytest.raises(ValueError):
            sampler.append_diffusion_links([0], [sampler.state.n_docs], [0])


@pytest.mark.skipif(
    not _compiled.backend_status()[0], reason="no C toolchain on this host"
)
class TestKernelParityAfterAppend:
    """Compiled conditionals must still match the reference loops after
    streaming appends — the §4 equivalence contract extends to §6."""

    def _appended_pair(self, twitter_tiny, fitted_cpd):
        graph, _ = twitter_tiny
        samplers = []
        for kernel in ("reference", "compiled"):
            result = fitted_cpd
            config = result.config.with_overrides(sweep_kernel=kernel)
            patched = type(result)(
                config=config,
                pi=result.pi,
                theta=result.theta,
                phi=result.phi,
                diffusion=result.diffusion,
                doc_community=result.doc_community,
                doc_topic=result.doc_topic,
                trace=result.trace,
                graph_name=result.graph_name,
            )
            sampler = CPDSampler.warm_start(graph, patched, rng=3)
            rng = np.random.default_rng(99)
            documents, users, timestamps = _arrivals(graph, rng, n_docs=5)
            communities = rng.integers(0, config.n_communities, size=5)
            topics = rng.integers(0, config.n_topics, size=5)
            new_ids = sampler.append_documents(
                documents, users, timestamps, communities=communities, topics=topics
            )
            sampler.append_diffusion_links(
                [int(new_ids[0]), 0], [3, int(new_ids[1])], [1, 2]
            )
            samplers.append(sampler)
        return samplers

    def test_conditionals_match(self, twitter_tiny, fitted_cpd):
        reference, compiled = self._appended_pair(twitter_tiny, fitted_cpd)
        probe_docs = [0, 3, reference.state.n_docs - 5, reference.state.n_docs - 4]
        for doc_id in probe_docs:
            old_community, old_topic = reference.state.unassign(doc_id)
            compiled.state.unassign(doc_id)
            np.testing.assert_allclose(
                compiled.kernel.topic_log_weights(doc_id, old_community),
                reference.reference_topic_log_weights(doc_id, old_community),
                rtol=1e-10,
                atol=1e-10,
            )
            np.testing.assert_allclose(
                compiled.kernel.community_log_weights(doc_id, old_topic),
                reference.reference_community_log_weights(doc_id, old_topic),
                rtol=1e-10,
                atol=1e-10,
            )
            reference.state.assign(doc_id, old_community, old_topic)
            compiled.state.assign(doc_id, old_community, old_topic)


class TestRefresher:
    def test_refresh_resweeps_only_dirty(self, twitter_tiny, fitted_cpd, rng):
        graph, _ = twitter_tiny
        refresher = IncrementalRefresher(graph, fitted_cpd, rng=5)
        documents, users, timestamps = _arrivals(graph, rng)
        communities = rng.integers(0, fitted_cpd.n_communities, size=len(documents))
        topics = rng.integers(0, fitted_cpd.config.n_topics, size=len(documents))
        new_ids = refresher.append_documents(
            documents, users, timestamps, communities, topics
        )
        refresher.append_links([int(new_ids[0])], [0], [1])
        assert len(refresher._dirty) == len(new_ids) + 1  # plus link endpoint 0
        untouched = refresher.sampler.state.doc_community[1:10].copy()
        report = refresher.refresh()
        assert report.n_documents == len(new_ids) + 1
        assert report.n_reassigned == report.moved_into.sum()
        assert not refresher._dirty
        np.testing.assert_array_equal(
            refresher.sampler.state.doc_community[1:10], untouched
        )
        refresher.sampler.state.check_consistency()

    def test_empty_refresh_is_a_noop(self, twitter_tiny, fitted_cpd):
        graph, _ = twitter_tiny
        refresher = IncrementalRefresher(graph, fitted_cpd, rng=5)
        report = refresher.refresh()
        assert report.n_documents == 0
        assert report.n_reassigned == 0

    def test_parallel_sweeper_refresh(self, twitter_tiny, fitted_cpd, rng):
        """Dirty-set refresh through the thread runner.

        Appended documents overflow the runner's corpus and must be swept
        serially by the coordinator; base documents go through the workers.
        """
        from repro.parallel import ParallelEStepRunner

        graph, _ = twitter_tiny
        with ParallelEStepRunner(
            graph, fitted_cpd.config, n_workers=2, rng=6
        ) as runner:
            refresher = IncrementalRefresher(
                graph, fitted_cpd, rng=5, document_sweeper=runner
            )
            documents, users, timestamps = _arrivals(graph, rng)
            communities = rng.integers(0, fitted_cpd.n_communities, size=len(documents))
            topics = rng.integers(0, fitted_cpd.config.n_topics, size=len(documents))
            new_ids = refresher.append_documents(
                documents, users, timestamps, communities, topics
            )
            refresher.append_links([int(new_ids[0])], [0], [1])
            report = refresher.refresh()
            assert report.n_documents == len(new_ids) + 1
            refresher.sampler.state.check_consistency()
            # fused augmentation covers appended links too
            assert len(refresher.sampler.deltas) == refresher.sampler.n_diff_links
        refresher.sampler.state.check_consistency()  # survives runner close

    def test_snapshot_result_reflects_the_grown_corpus(
        self, twitter_tiny, fitted_cpd, rng
    ):
        graph, _ = twitter_tiny
        refresher = IncrementalRefresher(graph, fitted_cpd, rng=5)
        documents, users, timestamps = _arrivals(graph, rng)
        communities = rng.integers(0, fitted_cpd.n_communities, size=len(documents))
        topics = rng.integers(0, fitted_cpd.config.n_topics, size=len(documents))
        refresher.append_documents(documents, users, timestamps, communities, topics)
        result = refresher.snapshot_result()
        assert len(result.doc_community) == graph.n_documents + len(documents)
        assert result.pi.shape == fitted_cpd.pi.shape
        state = refresher.sampler.state
        np.testing.assert_allclose(result.pi, state.pi_hat())
        np.testing.assert_allclose(result.phi, state.phi_hat())


class TestMicroBatchIngestor:
    @pytest.fixture()
    def pipeline(self, twitter_tiny, fitted_cpd):
        graph, _ = twitter_tiny
        store = ProfileStore.from_fit(fitted_cpd, graph)
        refresher = IncrementalRefresher(graph, fitted_cpd, rng=5)
        return graph, store, refresher

    def _events(self, graph, rng, n_docs=5):
        documents, users, timestamps = _arrivals(graph, rng, n_docs=n_docs)
        return [
            DocumentArrival(int(user), words, int(timestamp))
            for words, user, timestamp in zip(documents, users, timestamps)
        ]

    def test_flushes_at_batch_size(self, pipeline, rng):
        graph, store, refresher = pipeline
        ingestor = MicroBatchIngestor(store, refresher, batch_size=3, rng=1)
        events = self._events(graph, rng, n_docs=7)
        reports = ingestor.submit_many(events)
        assert len(reports) == 2  # two full batches of 3, one doc buffered
        assert ingestor.stats()["buffered"] == 1
        final = ingestor.flush()
        assert final.n_documents == 1
        assert ingestor.n_documents == 7
        assert refresher.n_documents == graph.n_documents + 7

    def test_foldin_only_mode_records_assignments(self, pipeline, rng):
        graph, store, _refresher = pipeline
        ingestor = MicroBatchIngestor(store, refresher=None, batch_size=4, rng=1)
        ingestor.submit_many(self._events(graph, rng, n_docs=4))
        assert len(ingestor.foldin_communities) == 4
        assert ingestor.foldin_counts.sum() == 4
        assert ingestor.refresh() is None  # nothing to refresh without a refresher

    def test_links_are_buffered_and_appended(self, pipeline, rng):
        graph, store, refresher = pipeline
        ingestor = MicroBatchIngestor(store, refresher, batch_size=2, rng=1)
        before = refresher.sampler.n_diff_links
        ingestor.submit(LinkArrival(0, 1, 0))
        ingestor.submit(LinkArrival(2, 3, 1))
        assert refresher.sampler.n_diff_links == before + 2

    def test_refresh_interval_triggers_automatically(self, pipeline, rng):
        graph, store, refresher = pipeline
        ingestor = MicroBatchIngestor(
            store, refresher, batch_size=2, refresh_interval=4, rng=1
        )
        ingestor.submit_many(self._events(graph, rng, n_docs=8))
        assert len(ingestor.refresh_reports) == 2
        assert ingestor.stats()["staleness_total"] == 0

    def test_staleness_counts_reset_on_refresh(self, pipeline, rng):
        graph, store, refresher = pipeline
        ingestor = MicroBatchIngestor(store, refresher, batch_size=4, rng=1)
        ingestor.submit_many(self._events(graph, rng, n_docs=4))
        assert ingestor.staleness.sum() == 4
        ingestor.refresh()
        assert ingestor.staleness.sum() == 0
        assert ingestor.foldin_counts.sum() == 4

    def test_refresh_interval_requires_refresher(self, pipeline):
        _graph, store, _refresher = pipeline
        with pytest.raises(ValueError):
            MicroBatchIngestor(store, refresher=None, refresh_interval=10)
