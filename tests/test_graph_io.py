"""Tests for social-graph JSON round-trips."""

import numpy as np
import pytest

from repro.datasets import twitter_scenario
from repro.graph import graph_from_dict, graph_to_dict, load_graph, save_graph


class TestRoundTrip:
    def test_dict_roundtrip_preserves_everything(self, twitter_tiny):
        graph, _ = twitter_tiny
        clone = graph_from_dict(graph_to_dict(graph))
        assert clone.n_users == graph.n_users
        assert clone.n_documents == graph.n_documents
        assert clone.n_friendship_links == graph.n_friendship_links
        assert clone.n_diffusion_links == graph.n_diffusion_links
        assert clone.stats() == graph.stats()
        np.testing.assert_array_equal(
            clone.documents[3].words, graph.documents[3].words
        )
        assert clone.documents[3].timestamp == graph.documents[3].timestamp

    def test_file_roundtrip(self, tmp_path, twitter_tiny):
        graph, _ = twitter_tiny
        path = tmp_path / "graph.json"
        save_graph(graph, path)
        clone = load_graph(path)
        assert clone.stats() == graph.stats()
        assert clone.name == graph.name

    def test_gzip_roundtrip(self, tmp_path, twitter_tiny):
        graph, _ = twitter_tiny
        path = tmp_path / "graph.json.gz"
        save_graph(graph, path)
        clone = load_graph(path)
        assert clone.stats() == graph.stats()

    def test_gzip_smaller_than_plain(self, tmp_path, twitter_tiny):
        graph, _ = twitter_tiny
        plain = tmp_path / "g.json"
        zipped = tmp_path / "g.json.gz"
        save_graph(graph, plain)
        save_graph(graph, zipped)
        assert zipped.stat().st_size < plain.stat().st_size

    def test_unknown_version_rejected(self, twitter_tiny):
        graph, _ = twitter_tiny
        payload = graph_to_dict(graph)
        payload["format_version"] = 999
        with pytest.raises(ValueError):
            graph_from_dict(payload)

    def test_adjacency_rebuilt(self, twitter_tiny):
        graph, _ = twitter_tiny
        clone = graph_from_dict(graph_to_dict(graph))
        for user in range(min(5, graph.n_users)):
            assert clone.friendship_neighbors(user) == graph.friendship_neighbors(user)
