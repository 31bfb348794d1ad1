"""The paper's 10-fold link-prediction evaluation protocol (Sect. 6.1).

"In the 10-fold cross validation, each time we use 10% of the positive
links and sample the same amount of negative links to calculate AUC" — the
model is trained once, then each fold scores a disjoint 10% slice of the
positive links against freshly sampled negatives. The mean and the per-fold
scores are both returned so significance tests can pair folds across
methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..graph.social_graph import SocialGraph
from ..diffusion.negative_sampling import (
    sample_negative_diffusion_pairs,
    sample_negative_friendship_pairs,
)
from ..sampling.rng import RngLike, ensure_rng
from .auc import auc_score

#: scores a batch of (source_doc, target_doc, timestamp) triples
DiffusionScoreFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
#: scores a batch of (source_user, target_user) pairs
FriendshipScoreFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FoldedAUC:
    """Per-fold AUC scores plus their mean."""

    fold_scores: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.fold_scores.mean())

    @property
    def std(self) -> float:
        return float(self.fold_scores.std(ddof=1)) if len(self.fold_scores) > 1 else 0.0

    @property
    def n_folds(self) -> int:
        return int(self.fold_scores.shape[0])


def _fold_slices(n_items: int, n_folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    permutation = rng.permutation(n_items)
    return [fold for fold in np.array_split(permutation, n_folds) if len(fold)]


def diffusion_auc_folds(
    graph: SocialGraph,
    score_fn: DiffusionScoreFn,
    n_folds: int = 10,
    rng: RngLike = None,
) -> FoldedAUC:
    """Fold-wise diffusion-link AUC under the paper's protocol."""
    generator = ensure_rng(rng)
    links = graph.diffusion_links
    if not links:
        raise ValueError("graph has no diffusion links to evaluate")
    src = np.asarray([l.source_doc for l in links])
    tgt = np.asarray([l.target_doc for l in links])
    times = np.asarray([l.timestamp for l in links])
    scores = []
    for fold in _fold_slices(len(links), n_folds, generator):
        positives = score_fn(src[fold], tgt[fold], times[fold])
        negatives = sample_negative_diffusion_pairs(
            graph, len(fold), generator, allow_fewer=True
        )
        if not len(negatives):
            continue
        negatives = score_fn(negatives[:, 0], negatives[:, 1], negatives[:, 2])
        scores.append(auc_score(positives, negatives))
    if not scores:
        raise RuntimeError("no folds could be scored")
    return FoldedAUC(fold_scores=np.asarray(scores))


def friendship_auc_folds(
    graph: SocialGraph,
    score_fn: FriendshipScoreFn,
    n_folds: int = 10,
    rng: RngLike = None,
) -> FoldedAUC:
    """Fold-wise friendship-link AUC under the paper's protocol."""
    generator = ensure_rng(rng)
    links = graph.friendship_links
    if not links:
        raise ValueError("graph has no friendship links to evaluate")
    src = np.asarray([l.source for l in links])
    tgt = np.asarray([l.target for l in links])
    scores = []
    for fold in _fold_slices(len(links), n_folds, generator):
        positives = score_fn(src[fold], tgt[fold])
        negatives_raw = sample_negative_friendship_pairs(graph, len(fold), generator)
        neg_src = np.asarray([n[0] for n in negatives_raw])
        neg_tgt = np.asarray([n[1] for n in negatives_raw])
        negatives = score_fn(neg_src, neg_tgt)
        scores.append(auc_score(positives, negatives))
    return FoldedAUC(fold_scores=np.asarray(scores))


def repeated_metric(
    values: Sequence[float],
) -> tuple[float, float]:
    """Mean and sample std of repeated evaluation scores."""
    array = np.asarray(list(values), dtype=np.float64)
    if array.size == 0:
        raise ValueError("need at least one value")
    std = float(array.std(ddof=1)) if array.size > 1 else 0.0
    return float(array.mean()), std
