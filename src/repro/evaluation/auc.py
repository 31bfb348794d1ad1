"""AUC for link-prediction tasks (paper Sect. 6.1).

The paper scores friendship and diffusion link prediction by the Area
Under the ROC Curve: the probability that a random held-out positive link
outscores a random sampled negative link. Computed exactly via rank sums,
with the standard half-credit for ties.
"""

from __future__ import annotations

import numpy as np


def auc_score(positive_scores: np.ndarray, negative_scores: np.ndarray) -> float:
    """Exact AUC from positive-link and negative-link scores."""
    positive_scores = np.asarray(positive_scores, dtype=np.float64)
    negative_scores = np.asarray(negative_scores, dtype=np.float64)
    if positive_scores.size == 0 or negative_scores.size == 0:
        raise ValueError("need at least one positive and one negative score")
    if not (np.all(np.isfinite(positive_scores)) and np.all(np.isfinite(negative_scores))):
        raise ValueError("scores must be finite")
    from scipy.stats import rankdata  # heavy to import; no fit or request path calls this

    combined = np.concatenate([positive_scores, negative_scores])
    ranks = rankdata(combined)
    n_pos = positive_scores.size
    n_neg = negative_scores.size
    rank_sum = ranks[:n_pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auc_from_labels(scores: np.ndarray, labels: np.ndarray) -> float:
    """AUC from a single score array with binary labels."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must align")
    positive = scores[labels == 1]
    negative = scores[labels == 0]
    return auc_score(positive, negative)
