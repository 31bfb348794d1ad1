"""Tests for the graph partitioner: disjointness, remapping, spill set."""

import numpy as np
import pytest

from repro.shard import GraphPartitioner, build_plan


@pytest.fixture(scope="module", params=["hash", "community"])
def plan(request, twitter_tiny):
    graph, _ = twitter_tiny
    partitioner = GraphPartitioner(strategy=request.param, rng=3)
    return graph, partitioner.partition(graph, 2)


class TestPartitionContract:
    def test_users_are_disjointly_covered(self, plan):
        graph, shard_plan = plan
        covered = np.concatenate([part.users for part in shard_plan.shards])
        assert covered.shape == (graph.n_users,)
        assert len(np.unique(covered)) == graph.n_users

    def test_every_shard_nonempty(self, plan):
        _graph, shard_plan = plan
        for part in shard_plan.shards:
            assert part.n_users > 0
            assert part.graph.n_users == part.n_users

    def test_documents_follow_their_user(self, plan):
        graph, shard_plan = plan
        doc_user = graph.doc_user
        for part in shard_plan.shards:
            for local_doc, global_doc in enumerate(part.doc_ids):
                global_user = doc_user[global_doc]
                assert shard_plan.user_shard[global_user] == part.shard_id
                local = part.graph.documents[local_doc]
                assert part.users[local.user_id] == global_user
                np.testing.assert_array_equal(
                    local.words, graph.documents[global_doc].words
                )
                assert local.timestamp == graph.documents[global_doc].timestamp

    def test_vocabulary_is_shared_globally(self, plan):
        graph, shard_plan = plan
        for part in shard_plan.shards:
            assert part.graph.vocabulary is graph.vocabulary

    def test_every_link_kept_or_spilled_exactly_once(self, plan):
        graph, shard_plan = plan
        kept_friend = sum(part.graph.n_friendship_links for part in shard_plan.shards)
        kept_diff = sum(part.graph.n_diffusion_links for part in shard_plan.shards)
        assert kept_friend + shard_plan.spill.n_friendship == graph.n_friendship_links
        assert kept_diff + shard_plan.spill.n_diffusion == graph.n_diffusion_links

    def test_spill_links_really_cross_shards(self, plan):
        graph, shard_plan = plan
        doc_user = graph.doc_user
        for source, target in shard_plan.spill.friendship:
            assert shard_plan.user_shard[source] != shard_plan.user_shard[target]
        for source_doc, target_doc, _t in shard_plan.spill.diffusion:
            assert (
                shard_plan.user_shard[doc_user[source_doc]]
                != shard_plan.user_shard[doc_user[target_doc]]
            )

    def test_kept_links_remap_to_the_same_endpoints(self, plan):
        graph, shard_plan = plan
        for part in shard_plan.shards:
            global_pairs = {
                (int(part.users[link.source]), int(part.users[link.target]))
                for link in part.graph.friendship_links
            }
            expected = {
                (link.source, link.target)
                for link in graph.friendship_links
                if shard_plan.user_shard[link.source] == part.shard_id
                and shard_plan.user_shard[link.target] == part.shard_id
            }
            assert global_pairs == expected


class TestStrategies:
    def test_single_shard_is_identity(self, twitter_tiny):
        graph, _ = twitter_tiny
        plan = GraphPartitioner(strategy="hash", rng=0).partition(graph, 1)
        assert plan.n_shards == 1
        assert plan.spill.n_friendship == 0
        assert plan.spill.n_diffusion == 0
        assert plan.shards[0].graph.n_documents == graph.n_documents

    def test_community_strategy_records_segments(self, twitter_tiny):
        graph, _ = twitter_tiny
        plan = GraphPartitioner(strategy="community", rng=3).partition(graph, 2)
        assert plan.segments  # the reused DataSegment machinery is visible
        segmented = np.concatenate([segment.users for segment in plan.segments])
        assert len(np.unique(segmented)) == graph.n_users

    def test_community_spills_fewer_links_than_hash(self, separated_tiny):
        """On a community-structured graph the aware strategy must win."""
        graph, _ = separated_tiny
        community = GraphPartitioner(strategy="community", rng=9).partition(graph, 2)
        hashed = GraphPartitioner(strategy="hash", rng=9).partition(graph, 2)
        assert community.spill_fraction() < hashed.spill_fraction()

    def test_rejects_bad_parameters(self, twitter_tiny):
        graph, _ = twitter_tiny
        with pytest.raises(ValueError):
            GraphPartitioner(strategy="nope")
        with pytest.raises(ValueError):
            GraphPartitioner().partition(graph, 0)
        with pytest.raises(ValueError):
            GraphPartitioner().partition(graph, graph.n_users + 1)

    def test_build_plan_validates_shape(self, twitter_tiny):
        graph, _ = twitter_tiny
        with pytest.raises(ValueError):
            build_plan(graph, np.zeros(3, dtype=np.int64))

    def test_shard_of_user_matches_plan(self, plan):
        _graph, shard_plan = plan
        for part in shard_plan.shards:
            for global_user in part.users[:3]:
                assert shard_plan.shard_of_user(int(global_user)) == part.shard_id
