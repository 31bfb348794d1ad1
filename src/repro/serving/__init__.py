"""Serving layer: the online read path over offline-fitted profiles.

The paper profiles communities once offline and then serves several
applications (Sect. 1). This package is that serving side:

* :class:`ProfileStore` — the facade every application reads through,
  wrapping a fitted result with memoised indexes and an LRU query cache;
* :class:`GraphSummary` — the graph statistics persisted into
  self-contained v2 artifacts so serving never reloads the graph;
* :func:`fold_in_documents` — frozen-model Gibbs assignment for documents
  that arrive after the offline fit.
"""

from .foldin import FoldInResult, fold_in_documents
from .store import ProfileStore, ensure_store
from .summary import GraphSummary

__all__ = [
    "FoldInResult",
    "GraphSummary",
    "ProfileStore",
    "ensure_store",
    "fold_in_documents",
]
