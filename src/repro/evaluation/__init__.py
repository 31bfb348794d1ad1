"""Evaluation harness: the paper's metrics and protocols (Sect. 6.1)."""

from .auc import auc_from_labels, auc_score
from .conductance import average_conductance, set_conductance
from .crossval import (
    DiffusionScoreFn,
    FoldedAUC,
    FriendshipScoreFn,
    diffusion_auc_folds,
    friendship_auc_folds,
)
from .nmi import nmi_matrix, normalized_mutual_information
from .perplexity import content_perplexity
from .queries import Query, queries_by_frequency_band, select_queries
from .ranking_metrics import (
    RankingScores,
    average_precision_recall_f1,
    precision_recall_at_k,
    ranking_scores,
)
from .significance import TTestResult, paired_one_tailed_ttest

__all__ = [
    "DiffusionScoreFn",
    "FoldedAUC",
    "FriendshipScoreFn",
    "Query",
    "RankingScores",
    "TTestResult",
    "auc_from_labels",
    "auc_score",
    "average_conductance",
    "average_precision_recall_f1",
    "content_perplexity",
    "diffusion_auc_folds",
    "friendship_auc_folds",
    "nmi_matrix",
    "normalized_mutual_information",
    "paired_one_tailed_ttest",
    "precision_recall_at_k",
    "queries_by_frequency_band",
    "ranking_scores",
    "select_queries",
]
