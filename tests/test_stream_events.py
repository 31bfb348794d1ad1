"""Tests for stream events and the replay splitter."""

import numpy as np
import pytest

from repro.stream import DocumentArrival, LinkArrival, split_for_replay


@pytest.fixture(scope="module")
def plan(twitter_tiny):
    graph, _ = twitter_tiny
    return split_for_replay(graph, warm_fraction=0.5)


class TestEventTypes:
    def test_document_arrival_coerces_words(self):
        event = DocumentArrival(user_id=3, words=[1, 2, 2], timestamp=5)
        assert event.words.dtype == np.int64
        assert event.words.tolist() == [1, 2, 2]

    def test_link_arrival_rejects_self_links(self):
        with pytest.raises(ValueError):
            LinkArrival(source_doc=4, target_doc=4)


class TestSplitForReplay:
    def test_base_plus_events_cover_the_corpus(self, twitter_tiny, plan):
        graph, _ = twitter_tiny
        assert plan.base_graph.n_documents + plan.n_document_events == graph.n_documents
        assert (
            plan.base_graph.n_diffusion_links + plan.n_link_events
            == graph.n_diffusion_links
        )

    def test_full_graph_matches_original_sizes(self, twitter_tiny, plan):
        graph, _ = twitter_tiny
        assert plan.full_graph.stats() == graph.stats()

    def test_doc_id_map_is_a_permutation(self, twitter_tiny, plan):
        graph, _ = twitter_tiny
        assert sorted(plan.doc_id_map.tolist()) == list(range(graph.n_documents))

    def test_base_documents_are_the_earliest(self, plan):
        base_max = max(doc.timestamp for doc in plan.base_graph.documents)
        stream_min = min(
            event.timestamp
            for event in plan.events
            if isinstance(event, DocumentArrival)
        )
        assert stream_min >= base_max

    def test_document_ids_follow_arrival_order(self, twitter_tiny, plan):
        """Applying events in order must reproduce full_graph's id space."""
        graph, _ = twitter_tiny
        next_id = plan.base_graph.n_documents
        for event in plan.events:
            if isinstance(event, DocumentArrival):
                expected = plan.full_graph.documents[next_id]
                assert event.user_id == expected.user_id
                assert event.timestamp == expected.timestamp
                np.testing.assert_array_equal(event.words, expected.words)
                next_id += 1
        assert next_id == graph.n_documents

    def test_links_arrive_after_both_endpoints(self, plan):
        n_docs = plan.base_graph.n_documents
        for event in plan.events:
            if isinstance(event, DocumentArrival):
                n_docs += 1
            else:
                assert event.source_doc < n_docs
                assert event.target_doc < n_docs

    def test_replayed_links_match_full_graph(self, plan):
        replayed = {
            (event.source_doc, event.target_doc)
            for event in plan.events
            if isinstance(event, LinkArrival)
        }
        base = {
            (link.source_doc, link.target_doc)
            for link in plan.base_graph.diffusion_links
        }
        full = {
            (link.source_doc, link.target_doc)
            for link in plan.full_graph.diffusion_links
        }
        assert replayed | base == full
        assert not replayed & base

    def test_warm_fraction_one_streams_nothing(self, twitter_tiny):
        graph, _ = twitter_tiny
        plan = split_for_replay(graph, warm_fraction=1.0)
        assert plan.events == []
        assert plan.base_graph.n_documents == graph.n_documents
        assert plan.base_graph.n_diffusion_links == graph.n_diffusion_links

    def test_invalid_warm_fraction_raises(self, twitter_tiny):
        graph, _ = twitter_tiny
        with pytest.raises(ValueError):
            split_for_replay(graph, warm_fraction=0.0)
