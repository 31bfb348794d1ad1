"""The compiled sweep kernel's multiplicity-split word layout."""

from __future__ import annotations

import numpy as np

from .state import counts_to_indptr


def split_word_multiplicity(
    words: np.ndarray, counts: np.ndarray, indptr: np.ndarray
) -> dict[str, np.ndarray]:
    """CSR doc -> (word, count) layout, split by multiplicity.

    Takes the per-document unique-word CSR (``CPDState._unique_*``, see
    :func:`repro.core.state.unique_word_csr`). Words occurring once in a
    document (the dominant case in short social-media posts) take one
    count-log lookup in the C topic conditional; repeated words take the
    two-``lgamma`` ascending-factorial form. Used by
    :class:`repro.core.kernel.CompiledKernel` at construction and for
    streamed-in documents.
    """
    lengths = np.diff(indptr)
    once = counts == 1
    docs = np.repeat(np.arange(lengths.shape[0], dtype=np.int64), lengths)
    single_lengths = np.bincount(docs[once], minlength=lengths.shape[0])
    return {
        "ws_words": words[once],
        "ws_indptr": counts_to_indptr(single_lengths),
        "wm_words": words[~once],
        "wm_indptr": counts_to_indptr(lengths - single_lengths),
        "wm_counts": counts[~once],
    }
