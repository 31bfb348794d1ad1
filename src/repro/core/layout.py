"""The sweep kernels' multiplicity-split word layout."""

from __future__ import annotations

import numpy as np

from .state import counts_to_indptr


def split_word_multiplicity(
    doc_unique: list[tuple[np.ndarray, np.ndarray]],
) -> dict[str, np.ndarray]:
    """CSR doc -> (word, count) layout, split by multiplicity.

    Words occurring once in a document (the dominant case in short
    social-media posts) go through a plain log-gather in the vectorized
    kernel; repeated words go through the two-``gammaln``
    ascending-factorial form. Used by :class:`repro.core.kernel.
    VectorizedKernel` (and so the compiled kernel) at construction.
    """
    single_rows: list[np.ndarray] = []
    multi_rows: list[np.ndarray] = []
    multi_count_rows: list[np.ndarray] = []
    single_lengths = np.zeros(len(doc_unique), dtype=np.int64)
    multi_lengths = np.zeros(len(doc_unique), dtype=np.int64)
    for doc_id, (words, counts) in enumerate(doc_unique):
        words = np.asarray(words, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        once = counts == 1
        single_rows.append(words[once])
        multi_rows.append(words[~once])
        multi_count_rows.append(counts[~once])
        single_lengths[doc_id] = int(once.sum())
        multi_lengths[doc_id] = len(words) - int(once.sum())

    def concat(rows: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)

    return {
        "ws_words": concat(single_rows),
        "ws_indptr": counts_to_indptr(single_lengths),
        "wm_words": concat(multi_rows),
        "wm_indptr": counts_to_indptr(multi_lengths),
        "wm_counts": concat(multi_count_rows).astype(np.float64),
    }
