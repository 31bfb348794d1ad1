"""WTM baseline — Whom To Mention (Wang et al., WWW'13 [37]).

WTM predicts whom a tweet's diffusion should target from user content
affinity, the follower relationship and user-level influence features — it
models *no communities* (Table 4 of the paper). Re-implemented here as the
logistic model over exactly those factors:

* content similarity between the two documents (cosine over word counts),
* content affinity between the two *users* (cosine over their aggregate
  word distributions),
* a friendship indicator (does u follow v),
* both users' popularity and activeness features.
"""

from __future__ import annotations

import numpy as np

from ..diffusion.features import UserFeatures
from ..diffusion.logistic import LogisticFit, LogisticTrainer, LogisticTrainerConfig
from ..diffusion.negative_sampling import sample_negative_diffusion_pairs
from ..graph.social_graph import SocialGraph
from ..sampling.rng import RngLike, ensure_rng
from .base import BaselineModel, require_fitted


class WTM(BaselineModel):
    """Feature-based diffusion prediction without communities."""

    name = "WTM"

    def __init__(self, negative_ratio: float = 1.0, lr_iterations: int = 200) -> None:
        self.negative_ratio = negative_ratio
        self.lr_iterations = lr_iterations
        self._fit_result: LogisticFit | None = None
        self._graph: SocialGraph | None = None

    # ------------------------------------------------------------- internals

    def _doc_vector(self, doc_id: int) -> dict[int, float]:
        counts: dict[int, float] = {}
        for word in self._graph.documents[doc_id].words:
            counts[int(word)] = counts.get(int(word), 0.0) + 1.0
        return counts

    @staticmethod
    def _cosine(a: dict[int, float], b: dict[int, float]) -> float:
        if not a or not b:
            return 0.0
        if len(b) < len(a):
            a, b = b, a
        dot = sum(value * b.get(key, 0.0) for key, value in a.items())
        norm_a = sum(v * v for v in a.values()) ** 0.5
        norm_b = sum(v * v for v in b.values()) ** 0.5
        if norm_a == 0.0 or norm_b == 0.0:
            return 0.0
        return dot / (norm_a * norm_b)

    def _pair_features(
        self, source_docs: np.ndarray, target_docs: np.ndarray
    ) -> np.ndarray:
        graph = self._graph
        doc_user = graph.doc_user
        friendships = graph.friendship_pairs()
        rows = np.empty((len(source_docs), 3 + UserFeatures.N_FEATURES))
        for index, (i, j) in enumerate(zip(source_docs, target_docs)):
            i, j = int(i), int(j)
            u, v = int(doc_user[i]), int(doc_user[j])
            doc_sim = self._cosine(self._doc_vector(i), self._doc_vector(j))
            user_sim = self._cosine(self._user_vectors[u], self._user_vectors[v])
            follows = 1.0 if (u, v) in friendships else 0.0
            rows[index] = np.concatenate(
                [[doc_sim, user_sim, follows], self._features.pair_features(u, v)]
            )
        return rows

    # --------------------------------------------------------------- training

    def fit(self, graph: SocialGraph, rng: RngLike = None) -> "WTM":
        generator = ensure_rng(rng)
        self._graph = graph
        self._features = UserFeatures(graph)
        self._user_vectors: list[dict[int, float]] = []
        for user in range(graph.n_users):
            vector: dict[int, float] = {}
            for doc_id in graph.documents_of(user):
                for word in graph.documents[doc_id].words:
                    vector[int(word)] = vector.get(int(word), 0.0) + 1.0
            self._user_vectors.append(vector)

        pos_src = np.asarray([l.source_doc for l in graph.diffusion_links])
        pos_tgt = np.asarray([l.target_doc for l in graph.diffusion_links])
        n_negative = int(round(self.negative_ratio * len(pos_src)))
        negatives = sample_negative_diffusion_pairs(
            graph, n_negative, generator, allow_fewer=True
        )
        design = np.vstack(
            [
                self._pair_features(pos_src, pos_tgt),
                self._pair_features(negatives[:, 0], negatives[:, 1]),
            ]
        )
        labels = np.concatenate([np.ones(len(pos_src)), np.zeros(len(negatives))])
        trainer = LogisticTrainer(LogisticTrainerConfig(n_iterations=self.lr_iterations))
        self._fit_result = trainer.fit(design, labels)
        return self

    # ---------------------------------------------------------------- outputs

    def friendship_scores(
        self, source_users: np.ndarray, target_users: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError("WTM does not model friendship links")

    def diffusion_scores(
        self,
        source_docs: np.ndarray,
        target_docs: np.ndarray,
        timestamps: np.ndarray,
    ) -> np.ndarray:
        require_fitted(self._fit_result, self.name)
        design = self._pair_features(
            np.asarray(source_docs, dtype=np.int64),
            np.asarray(target_docs, dtype=np.int64),
        )
        return self._fit_result.predict_proba(design)
