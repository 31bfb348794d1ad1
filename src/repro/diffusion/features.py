"""Individual-preference features ``f_uv`` (paper Sect. 3.1).

The paper models user u's preference to diffuse from user v as a linear
function ``nu^T f_uv`` over two features per user:

* **popularity** — audience size. The paper uses the ratio ``|Followers(u)|
  / |Followees(u)|``, which degenerates to the constant 1 on symmetric
  co-authorship graphs (every DBLP edge is reciprocated), so this
  implementation uses the follower (in-degree) count itself; on directed
  follower graphs the two carry the same celebrity signal (DESIGN.md §3).
* **activeness** — retweets over tweets (``|Retweets(u)| / |Tweets(u)|``);
  in DBLP terms, citations made per paper.

``f_uv`` concatenates u's features with v's. Counts and ratios are
Laplace-smoothed and log-scaled so a celebrity with 10^6 followers does
not saturate the sigmoid logit.
"""

from __future__ import annotations

import numpy as np

from ..graph.social_graph import SocialGraph


class UserFeatures:
    """Precomputed per-user popularity/activeness and pair-feature assembly."""

    #: f_uv layout: [popularity(u), activeness(u), popularity(v), activeness(v)]
    N_FEATURES = 4

    def __init__(self, graph: SocialGraph, log_scale: bool = True) -> None:
        n_users = graph.n_users
        followers = np.asarray([graph.follower_count(u) for u in range(n_users)], dtype=np.float64)
        diffusions = np.asarray([graph.diffusions_made(u) for u in range(n_users)], dtype=np.float64)
        documents = np.asarray(
            [len(graph.documents_of(u)) for u in range(n_users)], dtype=np.float64
        )
        self._init_from_counts(followers, diffusions, documents, log_scale)

    @classmethod
    def from_counts(
        cls,
        followers: np.ndarray,
        diffusions_made: np.ndarray,
        documents: np.ndarray,
        log_scale: bool = True,
    ) -> "UserFeatures":
        """Build from per-user count arrays — the graph-free serving path.

        The arrays are exactly what a persisted
        :class:`repro.serving.GraphSummary` carries, so a self-contained
        artifact can reconstruct identical ``f_uv`` features.
        """
        features = cls.__new__(cls)
        features._init_from_counts(
            np.asarray(followers, dtype=np.float64),
            np.asarray(diffusions_made, dtype=np.float64),
            np.asarray(documents, dtype=np.float64),
            log_scale,
        )
        return features

    def _init_from_counts(
        self,
        followers: np.ndarray,
        diffusions: np.ndarray,
        documents: np.ndarray,
        log_scale: bool,
    ) -> None:
        popularity = followers + 1.0
        activeness = (diffusions + 1.0) / (documents + 1.0)
        if log_scale:
            popularity = np.log(popularity)
            activeness = np.log(activeness)
        self.popularity = popularity
        self.activeness = activeness
        self._per_user = np.stack([popularity, activeness], axis=1)

    @property
    def n_users(self) -> int:
        return int(self._per_user.shape[0])

    def pair_features(self, source_user: int, target_user: int) -> np.ndarray:
        """``f_uv`` for one (u, v) pair, u diffusing from v."""
        return np.concatenate([self._per_user[source_user], self._per_user[target_user]])

    def pair_features_batch(self, source_users: np.ndarray, target_users: np.ndarray) -> np.ndarray:
        """``f_uv`` rows for parallel arrays of sources and targets."""
        source_users = np.asarray(source_users, dtype=np.int64)
        target_users = np.asarray(target_users, dtype=np.int64)
        if source_users.shape != target_users.shape:
            raise ValueError("source and target arrays must align")
        # one np.take of (source, target) row pairs: far cheaper than two
        # fancy-indexed gathers and a concatenate, with the same values
        pairs = np.stack([source_users, target_users], axis=-1)
        return np.take(self._per_user, pairs, axis=0).reshape(len(pairs), self.N_FEATURES)
