"""Time-sensitive topic popularity ``n_tz`` (paper Sect. 3.1).

The diffusion sigmoid (Eq. 5) adds the popularity of the link's topic at
the link's timestamp to the logit. The paper uses the raw count of topic z
at time t; raw counts grow without bound with corpus size and would
dominate the logit, so the term here is bounded: the topic's proportion of
its time bucket's documents. See DESIGN.md §3.

Counts are maintained incrementally: the Gibbs sampler moves a document's
topic, the popularity table moves one count.
"""

from __future__ import annotations

import numpy as np


class TopicPopularity:
    """Mutable (time bucket x topic) count table with bounded score lookups."""

    def __init__(self, n_topics: int, n_time_buckets: int) -> None:
        if n_topics < 1 or n_time_buckets < 1:
            raise ValueError("need at least one topic and one time bucket")
        self.n_topics = n_topics
        self.n_time_buckets = n_time_buckets
        self._counts = np.zeros((n_time_buckets, n_topics), dtype=np.float64)

    @classmethod
    def from_assignments(
        cls,
        timestamps: np.ndarray,
        topics: np.ndarray,
        n_topics: int,
        n_time_buckets: int,
    ) -> "TopicPopularity":
        """Build the table from current document topic assignments."""
        table = cls(n_topics, n_time_buckets)
        table.increment_many(timestamps, topics)
        return table

    # ------------------------------------------------------------ maintenance

    def increment(self, timestamp: int, topic: int) -> None:
        """Register one document of ``topic`` at ``timestamp``."""
        self._counts[timestamp, topic] += 1.0

    def decrement(self, timestamp: int, topic: int) -> None:
        """Remove one document of ``topic`` at ``timestamp``."""
        if self._counts[timestamp, topic] <= 0.0:
            raise ValueError(
                f"popularity count underflow at (t={timestamp}, z={topic})"
            )
        self._counts[timestamp, topic] -= 1.0

    def move(self, timestamp: int, old_topic: int, new_topic: int) -> None:
        """Reassign one document's topic at a fixed timestamp."""
        if old_topic != new_topic:
            self.decrement(timestamp, old_topic)
            self.increment(timestamp, new_topic)

    def increment_many(self, timestamps: np.ndarray, topics: np.ndarray) -> None:
        """Register one document per ``(timestamp, topic)`` pair (batched)."""
        timestamps = np.asarray(timestamps, dtype=np.int64)
        topics = np.asarray(topics, dtype=np.int64)
        if len(timestamps):
            np.add.at(self._counts, (timestamps, topics), 1.0)

    def decrement_many(self, timestamps: np.ndarray, topics: np.ndarray) -> None:
        """Remove one document per ``(timestamp, topic)`` pair (batched)."""
        timestamps = np.asarray(timestamps, dtype=np.int64)
        topics = np.asarray(topics, dtype=np.int64)
        if not len(timestamps):
            return
        np.add.at(self._counts, (timestamps, topics), -1.0)
        if np.any(self._counts[timestamps, topics] < 0.0):
            np.add.at(self._counts, (timestamps, topics), 1.0)  # restore
            raise ValueError("popularity count underflow in batched decrement")

    def move_many(
        self, timestamps: np.ndarray, old_topics: np.ndarray, new_topics: np.ndarray
    ) -> None:
        """Batched :meth:`move` — reassign many documents' topics at once."""
        self.decrement_many(timestamps, old_topics)
        self.increment_many(timestamps, new_topics)

    def load_counts(self, counts: np.ndarray) -> None:
        """Overwrite the full count table in place (parallel-helper refresh).

        One memcpy instead of replaying increments.
        """
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != self._counts.shape:
            raise ValueError(
                f"count table has shape {self._counts.shape}, got {counts.shape}"
            )
        np.copyto(self._counts, counts)

    # ---------------------------------------------------------------- lookups

    def count(self, timestamp: int, topic: int) -> float:
        """Raw count ``n_tz``."""
        return float(self._counts[timestamp, topic])

    def score(self, timestamp: int, topic: int) -> float:
        """The popularity term added to the diffusion logit."""
        return float(self.scores(timestamp)[topic])

    def scores(self, timestamp: int) -> np.ndarray:
        """Popularity term for every topic at ``timestamp`` (vectorised)."""
        return self._proportions(self._counts[timestamp : timestamp + 1])[0]

    def score_matrix(self) -> np.ndarray:
        """Popularity term for every (time bucket, topic) cell (vectorised)."""
        return self._proportions(self._counts)

    @staticmethod
    def _proportions(rows: np.ndarray) -> np.ndarray:
        """Each count over its row's total, a total below 1 read as 1."""
        return rows / np.maximum(rows.sum(axis=1, keepdims=True), 1.0)
