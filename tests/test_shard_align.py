"""Tests for the cross-shard community aligner."""

import functools
import itertools

import numpy as np
import pytest

from repro.core import CPDConfig, CPDResult
from repro.datasets import separated_scenario
from repro.shard import (
    CommunityAligner,
    aligned_user_labels,
    community_signatures,
    fit_shards,
    hellinger_affinity,
)
from repro.shard import align


def permuted_result(result: CPDResult, permutation: np.ndarray) -> CPDResult:
    """The same fit with community ids relabelled by ``permutation``."""
    inverse = np.argsort(permutation)
    return CPDResult(
        config=result.config,
        pi=result.pi[:, permutation],
        theta=result.theta[permutation],
        phi=result.phi,
        diffusion=result.diffusion.copy(),
        doc_community=inverse[result.doc_community],
        doc_topic=result.doc_topic,
        graph_name=result.graph_name,
    )


class TestSignatures:
    def test_rows_are_distributions(self, fitted_cpd):
        for feature in ("content", "diffusion"):
            signatures = community_signatures(fitted_cpd, feature)
            assert signatures.shape == (fitted_cpd.n_communities, fitted_cpd.n_words)
            np.testing.assert_allclose(signatures.sum(axis=1), 1.0, rtol=1e-9)
            assert (signatures >= 0).all()

    def test_unknown_feature_rejected(self, fitted_cpd):
        with pytest.raises(ValueError):
            community_signatures(fitted_cpd, "nope")

    def test_hellinger_bounds(self, fitted_cpd):
        signatures = community_signatures(fitted_cpd)
        affinity = hellinger_affinity(signatures, signatures)
        assert affinity.shape == (fitted_cpd.n_communities,) * 2
        assert (affinity <= 1.0 + 1e-9).all() and (affinity >= 0.0).all()
        np.testing.assert_allclose(np.diag(affinity), 1.0, rtol=1e-9)


class TestAlignment:
    def test_self_alignment_is_identity(self, fitted_cpd):
        alignment = CommunityAligner().align([fitted_cpd, fitted_cpd])
        assert alignment.n_global == fitted_cpd.n_communities
        np.testing.assert_array_equal(
            alignment.local_to_global[0], alignment.local_to_global[1]
        )

    @pytest.mark.parametrize("method", ["hungarian", "greedy"])
    def test_recovers_a_planted_permutation(self, fitted_cpd, method):
        permutation = np.array([2, 0, 3, 1])
        shuffled = permuted_result(fitted_cpd, permutation)
        alignment = CommunityAligner(method=method).align([fitted_cpd, shuffled])
        assert alignment.n_global == fitted_cpd.n_communities
        # shuffled community c is original community permutation[c]
        np.testing.assert_array_equal(alignment.local_to_global[1], permutation)

    def test_dissimilar_communities_open_new_labels(self, fitted_cpd):
        # a synthetic "shard" whose communities concentrate on disjoint words
        n_c, n_z, n_w = (
            fitted_cpd.n_communities,
            fitted_cpd.n_topics,
            fitted_cpd.n_words,
        )
        phi = np.full((n_z, n_w), 1e-12)
        for topic in range(n_z):
            start = (topic * n_w) // n_z
            stop = ((topic + 1) * n_w) // n_z
            phi[topic, start:stop] = 1.0
        phi /= phi.sum(axis=1, keepdims=True)
        theta = np.eye(n_c, n_z)
        foreign = CPDResult(
            config=fitted_cpd.config,
            pi=np.full_like(fitted_cpd.pi, 1.0 / n_c),
            theta=theta,
            phi=phi,
            diffusion=fitted_cpd.diffusion.copy(),
            doc_community=fitted_cpd.doc_community,
            doc_topic=fitted_cpd.doc_topic,
        )
        alignment = CommunityAligner(min_similarity=0.9).align([fitted_cpd, foreign])
        assert alignment.n_global > fitted_cpd.n_communities

    def test_mismatched_vocabulary_rejected(self, fitted_cpd, fitted_cpd_dblp):
        with pytest.raises(ValueError):
            CommunityAligner().align([fitted_cpd, fitted_cpd_dblp])

    def test_roundtrip_through_dict_preserves_mapping(self, sharded_parity):
        alignment = sharded_parity.alignment
        from repro.shard import ShardAlignment

        revived = ShardAlignment.from_dict(alignment.to_dict())
        assert revived.n_global == alignment.n_global
        for mine, theirs in zip(revived.local_to_global, alignment.local_to_global):
            np.testing.assert_array_equal(mine, theirs)
        # signatures are derived data: absent after revival, rebuildable
        assert revived.signatures.size == 0
        revived.rebuild_signatures(sharded_parity.results)
        np.testing.assert_allclose(
            revived.signatures, alignment.signatures, atol=1e-9
        )

    def test_map_result_identity_on_reference_shard(self, sharded_parity):
        aligner = CommunityAligner()
        mapping = aligner.map_result(
            sharded_parity.alignment, sharded_parity.results[0]
        )
        np.testing.assert_array_equal(
            mapping, sharded_parity.alignment.local_to_global[0]
        )


class TestAlignedLabels:
    def test_labels_cover_every_user(self, sharded_parity, separated_tiny):
        graph, _ = separated_tiny
        labels = aligned_user_labels(
            sharded_parity.alignment,
            sharded_parity.results,
            [part.users for part in sharded_parity.plan.shards],
            graph.n_users,
        )
        assert labels.shape == (graph.n_users,)
        assert (labels >= 0).all()
        assert (labels < sharded_parity.alignment.n_global).all()


@functools.lru_cache(maxsize=None)
def _matchings(rows: int, cols: int) -> np.ndarray:
    """Every injective row -> column map, one per row of the result."""
    return np.array(list(itertools.permutations(range(cols), rows)), dtype=np.int8)


def _brute_force_best(similarity: np.ndarray) -> float:
    """Largest total similarity over every way to match the smaller side."""
    rows, cols = similarity.shape
    if rows > cols:
        return _brute_force_best(similarity.T)
    return float(similarity[np.arange(rows), _matchings(rows, cols)].sum(axis=1).max())


def _scipy_assign(similarity: np.ndarray, method: str) -> list[tuple[int, int]]:
    """scipy's solver as an oracle (the program itself never imports it)."""
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(-similarity)
    return list(zip(rows.tolist(), cols.tolist()))


class TestExactAssignment:
    @pytest.fixture(scope="class")
    def matrices(self):
        rng = np.random.default_rng(2024)
        shapes = [(r, c) for r in range(1, 8) for c in range(r, 10)]
        out = []
        for index in range(520):
            rows, cols = shapes[index % len(shapes)]
            sim = rng.random((rows, cols))
            out.append(sim if index % 2 == 0 else sim.T.copy())  # both orientations
        return out

    def test_reaches_the_brute_force_optimum(self, matrices):
        for sim in matrices:
            pairs = align._assign(sim, "hungarian")
            assert len(pairs) == min(sim.shape)
            rows, cols = zip(*pairs)
            assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
            total = sum(sim[row, col] for row, col in pairs)
            assert total == pytest.approx(_brute_force_best(sim), abs=1e-12)

    def test_matches_scipy_pairs(self, matrices):
        pytest.importorskip("scipy.optimize")
        for sim in matrices:
            assert align._assign(sim, "hungarian") == _scipy_assign(sim, "hungarian")

    def test_degenerate_shapes_and_ties(self):
        assert align._assign(np.zeros((0, 3)), "hungarian") == []
        assert align._assign(np.zeros((3, 0)), "hungarian") == []
        assert align._assign(np.ones((3, 3)), "hungarian") == [(0, 0), (1, 1), (2, 2)]
        tall = align._assign(np.ones((4, 2)), "hungarian")
        assert len(tall) == 2 and len({col for _, col in tall}) == 2

    def test_rejects_non_finite_similarities(self):
        with pytest.raises(ValueError):
            align._assign(np.array([[0.5, np.nan], [0.1, 0.2]]), "hungarian")

    @pytest.mark.parametrize("seed", [1, 7])
    def test_serve_router_shard_fits_align_as_scipy_would(self, seed, monkeypatch):
        # the perfbench serve-router set-up: a 2-shard community fit
        pytest.importorskip("scipy.optimize")
        graph, _ = separated_scenario("medium", rng=seed)
        config = CPDConfig(
            n_communities=8, n_topics=16, n_iterations=20, rho=0.5, alpha=0.5,
            sweep_kernel="compiled",
        )
        sharded = fit_shards(graph, config, 2, strategy="community", rng=seed)
        ours = sharded.alignment
        monkeypatch.setattr(align, "_assign", _scipy_assign)
        oracle = CommunityAligner(
            method=ours.method, feature=ours.feature, min_similarity=ours.min_similarity
        ).align(sharded.results)
        assert ours.n_global == oracle.n_global
        for mine, theirs in zip(ours.local_to_global, oracle.local_to_global):
            np.testing.assert_array_equal(mine, theirs)
