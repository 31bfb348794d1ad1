"""Tests for data segmentation and workload scheduling."""

import numpy as np
import pytest

from repro.core import CPDConfig, DiffusionParameters
from repro.core.gibbs import CPDSampler
from repro.parallel import (
    WorkloadModel,
    build_schedule,
    build_segments,
    measure_workload_model,
    segment_users_by_topic,
)


class TestSegmentation:
    def test_segments_partition_users(self, twitter_tiny):
        graph, _ = twitter_tiny
        segments = segment_users_by_topic(graph, 4, lda_iterations=5, rng=0)
        users = sorted(u for s in segments for u in s.users.tolist())
        assert users == list(range(graph.n_users))

    def test_segments_partition_documents(self, twitter_tiny):
        graph, _ = twitter_tiny
        segments = segment_users_by_topic(graph, 4, lda_iterations=5, rng=0)
        docs = sorted(d for s in segments for d in s.doc_ids.tolist())
        assert docs == list(range(graph.n_documents))

    def test_user_documents_stay_together(self, twitter_tiny):
        """Guideline 1 of Sect. 4.3: one user's docs share a segment."""
        graph, _ = twitter_tiny
        segments = segment_users_by_topic(graph, 4, lda_iterations=5, rng=0)
        doc_user = graph.document_user_array()
        for segment in segments:
            user_set = set(segment.users.tolist())
            assert all(int(doc_user[d]) in user_set for d in segment.doc_ids)

    def test_link_counts_cover_incident_links(self, twitter_tiny):
        graph, _ = twitter_tiny
        segments = segment_users_by_topic(graph, 3, lda_iterations=5, rng=0)
        # every friendship link touches at least one segment's count
        assert sum(s.n_friendship_links for s in segments) >= graph.n_friendship_links

    def test_build_segments_validation(self, twitter_tiny):
        graph, _ = twitter_tiny
        with pytest.raises(ValueError):
            build_segments(graph, np.zeros(3))

    def test_explicit_mapping(self, twitter_tiny):
        graph, _ = twitter_tiny
        mapping = np.arange(graph.n_users) % 2
        segments = build_segments(graph, mapping)
        assert len(segments) == 2


    @pytest.mark.parametrize("kind", ["lda", "sparse_ids", "single"])
    def test_build_segments_matches_per_segment_loop(self, twitter_tiny, kind):
        graph, _ = twitter_tiny
        if kind == "lda":
            mapping = np.empty(graph.n_users, dtype=np.int64)
            for segment in segment_users_by_topic(graph, 4, lda_iterations=5, rng=0):
                mapping[segment.users] = segment.segment_id
        elif kind == "sparse_ids":
            mapping = (np.arange(graph.n_users) * 7) % 5 * 10 - 20
        else:
            mapping = np.zeros(graph.n_users, dtype=np.int64)
        ours = build_segments(graph, mapping)
        expected = _segments_by_loop(graph, mapping)
        assert len(ours) == len(expected)
        for segment, (segment_id, users, doc_ids, n_friend, n_diff) in zip(ours, expected):
            assert segment.segment_id == segment_id
            np.testing.assert_array_equal(segment.users, users)
            np.testing.assert_array_equal(segment.doc_ids, doc_ids)
            assert segment.n_friendship_links == n_friend
            assert segment.n_diffusion_links == n_diff


def _segments_by_loop(graph, user_segment):
    """The per-segment link loops ``build_segments`` replaced."""
    doc_user = graph.document_user_array()
    rows = []
    for segment_id in np.unique(user_segment):
        users = np.flatnonzero(user_segment == segment_id)
        user_set = set(int(u) for u in users)
        n_friend = sum(
            1 for link in graph.friendship_links
            if link.source in user_set or link.target in user_set
        )
        n_diff = sum(
            1 for link in graph.diffusion_links
            if int(doc_user[link.source_doc]) in user_set
            or int(doc_user[link.target_doc]) in user_set
        )
        doc_ids = np.flatnonzero(np.isin(doc_user, users))
        rows.append((int(segment_id), users, doc_ids, n_friend, n_diff))
    return rows


class TestWorkloadModel:
    def test_estimate_is_linear(self):
        model = WorkloadModel(0.1, 0.01, 0.02)
        from repro.parallel import DataSegment

        segment = DataSegment(
            0, np.arange(3), np.arange(10), n_friendship_links=5, n_diffusion_links=4
        )
        assert model.estimate_segment(segment) == pytest.approx(
            10 * 0.1 + 5 * 0.01 + 4 * 0.02
        )

    def test_measured_model_positive(self, twitter_tiny, tiny_config):
        graph, _ = twitter_tiny
        sampler = CPDSampler(
            graph, tiny_config, DiffusionParameters.initial(4, 8), rng=0
        )
        model = measure_workload_model(sampler, probe_documents=10)
        assert model.seconds_per_document > 0
        assert model.seconds_per_friendship_link >= 0


class TestSchedule:
    def test_schedule_covers_all_documents(self, twitter_tiny):
        graph, _ = twitter_tiny
        segments = segment_users_by_topic(graph, 4, lda_iterations=5, rng=0)
        model = WorkloadModel(1e-4, 1e-5, 1e-5)
        schedule = build_schedule(segments, model, n_workers=2)
        docs = np.sort(
            np.concatenate([schedule.worker_doc_ids(w) for w in range(2)])
        )
        np.testing.assert_array_equal(docs, np.arange(graph.n_documents))

    def test_estimated_seconds_shape(self, twitter_tiny):
        graph, _ = twitter_tiny
        segments = segment_users_by_topic(graph, 4, lda_iterations=5, rng=0)
        schedule = build_schedule(segments, WorkloadModel(1e-4, 0, 0), n_workers=3)
        assert schedule.estimated_worker_seconds().shape == (3,)

    def test_empty_segments_rejected(self):
        with pytest.raises(ValueError):
            build_schedule([], WorkloadModel(1, 1, 1), 2)
