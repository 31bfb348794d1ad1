"""ProfileStore: the serving facade over a fitted CPD model.

The paper's workflow is "profile once offline, then serve several
applications" (Sect. 1); community-search systems answer such queries
interactively, so per-query recomputation over the raw graph cannot scale.
Before this facade existed every application reloaded the graph, rebuilt
its indexes and recomputed scores from scratch on each call.

``ProfileStore`` is the one read-path object (the facade pattern of the
service-decomposition exemplars in SNIPPETS.md): it wraps a fitted
:class:`~repro.core.result.CPDResult` together with the serving payloads of
a self-contained artifact (v2+, :mod:`repro.core.io`) — the
:class:`~repro.graph.vocabulary.Vocabulary` and a
:class:`~repro.serving.summary.GraphSummary` — and memoises every derived
index the applications consume:

* user -> top-k community assignments and the member lists per community,
* the query-term inverted index of Sect. 6.3.2,
* ranking scores per query (Eq. 19) behind an LRU cache,
* the topic-popularity table ``n_tz`` and the ``f_uv`` user features,
* topic-aggregated and per-topic slices of the diffusion tensor ``eta``,
* community labels for reports and visualizations.

A store built by :meth:`from_fit` keeps a reference to the live graph (the
offline path); one built by :meth:`from_artifact` has ``graph=None`` and
serves everything above without any graph access. Fold-in inference
(:mod:`repro.serving.foldin`) handles documents that arrive after the
offline fit.
"""

from __future__ import annotations

import threading
import time
from typing import Sequence, Union

import numpy as np

from .. import obs
from ..core.io import CPDArtifact, PathLike, load_artifact, save_result
from ..core.result import CPDResult
from ..diffusion.features import UserFeatures
from ..diffusion.popularity import TopicPopularity
from ..evaluation.queries import Query
from ..graph.social_graph import GraphStats, SocialGraph
from ..graph.vocabulary import Vocabulary
from ..sampling.rng import RngLike
from .cache import LRUCache
from .foldin import FoldInResult, fold_in_documents
from .summary import GraphSummary

QueryLike = Union[str, Sequence[str]]


def compute_community_labels(
    result: CPDResult, vocabulary: Vocabulary, n_words: int = 3
) -> list[str]:
    """Label each community by the top words of its dominant topics.

    The one labelling heuristic shared by the store's memoised
    :meth:`ProfileStore.labels` and the raw-result path of
    :func:`repro.apps.visualization.community_labels`.
    """
    labels = []
    for community in range(result.n_communities):
        words: list[str] = []
        for topic, _weight in result.top_topics(community, 2):
            words.extend(
                word for word, _p in result.top_words(topic, n_words, vocabulary)
            )
        deduped = list(dict.fromkeys(words))[:n_words]
        labels.append(" ".join(deduped))
    return labels


class ProfileStore:
    """Read-path facade over one fitted CPD model (see module docstring).

    All derived indexes are built lazily and memoised; the store is
    intended to live for many queries (a process-wide singleton per model
    in a serving deployment). It never mutates the wrapped result.
    """

    def __init__(
        self,
        result: CPDResult,
        vocabulary: Vocabulary | None = None,
        summary: GraphSummary | None = None,
        graph: SocialGraph | None = None,
        query_cache_size: int = 1024,
    ) -> None:
        if vocabulary is None and graph is not None:
            vocabulary = graph.vocabulary
        self.result = result
        self.vocabulary = vocabulary
        self.graph = graph
        self._summary = summary
        if query_cache_size < 1:
            raise ValueError("query_cache_size must be at least 1")
        self._rank_cache: LRUCache[list[tuple[int, float]]] = LRUCache(query_cache_size)
        self._shift_cache: LRUCache[float] = LRUCache(query_cache_size)
        # one reentrant lock guards every memo build and the hot-swap path;
        # cache hits stay lock-free apart from the LRU's own internal lock,
        # so the gateway's executor threads contend only on misses
        self._lock = threading.RLock()
        # memo slots for the non-query indexes
        self._top_communities: dict[int, np.ndarray] = {}
        self._members: dict[int, list[np.ndarray]] = {}
        self._labels: dict[int, list[str]] = {}
        self._diffusion_slices: dict[int, np.ndarray] = {}
        self._log_phi: np.ndarray | None = None
        self._eta_flat: np.ndarray | None = None
        self._aggregated_eta: np.ndarray | None = None
        self._query_index: dict[str, Query] | None = None
        self._popularity: TopicPopularity | None = None
        self._pop_matrix: np.ndarray | None = None
        self._user_features: UserFeatures | None = None
        self._doc_user_cache: np.ndarray | None = None
        self._doc_time_cache: np.ndarray | None = None

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_fit(
        cls,
        result: CPDResult,
        graph: SocialGraph,
        query_cache_size: int = 1024,
    ) -> "ProfileStore":
        """Wrap a freshly fitted result with its live graph (offline path).

        The graph summary is distilled lazily on first use, so wrapping a
        fit for a couple of queries stays cheap.
        """
        return cls(result, graph=graph, query_cache_size=query_cache_size)

    @classmethod
    def from_artifact(
        cls, path: PathLike, query_cache_size: int = 1024
    ) -> "ProfileStore":
        """Open a saved artifact for serving — no graph access, ever.

        Requires a self-contained artifact (v2+) for the full API; a v1
        (or payload-free) artifact still serves the pure profile queries
        but raises on vocabulary- or summary-dependent calls.
        """
        artifact = load_artifact(path)
        return cls.from_artifact_bundle(artifact, query_cache_size=query_cache_size)

    @classmethod
    def from_artifact_bundle(
        cls, artifact: CPDArtifact, query_cache_size: int = 1024
    ) -> "ProfileStore":
        """Wrap an already-loaded :class:`~repro.core.io.CPDArtifact`."""
        summary = (
            GraphSummary.from_dict(artifact.graph_summary)
            if artifact.graph_summary is not None
            else None
        )
        return cls(
            artifact.result,
            vocabulary=artifact.vocabulary,
            summary=summary,
            query_cache_size=query_cache_size,
        )

    def save(self, path: PathLike) -> None:
        """Persist as a self-contained artifact (vocabulary + summary)."""
        save_result(
            self.result, path, vocabulary=self.vocabulary, graph_summary=self.summary
        )

    # --------------------------------------------------------------- hot swap

    def invalidate(self) -> None:
        """Reset the Eq. 19 LRU cache and every memoised index in place.

        The hot-swap primitive: after the wrapped result (or summary)
        changes, all derived indexes — top-k/membership, labels, log-phi,
        flattened eta, popularity, query index, feature provider — must be
        rebuilt lazily from the new data. The store object itself survives,
        so long-lived references keep serving; the cumulative hit/miss
        counters are preserved for monitoring continuity.
        """
        with self._lock:
            self._rank_cache.clear()  # entries only; hit/miss counters survive
            self._shift_cache.clear()
            self._top_communities.clear()
            self._members.clear()
            self._labels.clear()
            self._diffusion_slices.clear()
            self._log_phi = None
            self._eta_flat = None
            self._aggregated_eta = None
            self._query_index = None
            self._popularity = None
            self._pop_matrix = None
            self._user_features = None
            self._doc_user_cache = None
            self._doc_time_cache = None

    def hot_swap(
        self,
        result: CPDResult,
        summary: GraphSummary | None = None,
        vocabulary: Vocabulary | None = None,
    ) -> None:
        """Swap in a newer fitted result without rebuilding the store.

        The streaming pipeline (:mod:`repro.stream`) snapshots an
        incrementally-maintained model and calls this on the live store:
        the wrapped result (and optionally the summary/vocabulary) is
        replaced and every memoised index invalidated, so subsequent
        queries serve the new profiles. Dimensions are validated against
        whatever payloads the store keeps. The swap happens under the
        store's lock, so readers on other threads observe either the old
        model with its old indexes or the new model with freshly-built
        ones — never a mix (the serving gateway hot-swaps under live
        traffic).
        """
        vocabulary = vocabulary if vocabulary is not None else self.vocabulary
        if vocabulary is not None and result.n_words != len(vocabulary):
            raise ValueError(
                f"result has {result.n_words} words but the vocabulary has "
                f"{len(vocabulary)} — refusing to hot-swap a mismatched model"
            )
        summary = summary if summary is not None else self._summary
        if summary is not None and summary.n_documents != len(result.doc_topic):
            raise ValueError(
                f"summary covers {summary.n_documents} documents but the result "
                f"assigns {len(result.doc_topic)} — pass the matching summary"
            )
        if (
            summary is None
            and self.graph is not None
            and self.graph.n_documents != len(result.doc_topic)
        ):
            raise ValueError(
                f"the store's live graph covers {self.graph.n_documents} documents "
                f"but the result assigns {len(result.doc_topic)} — pass the "
                "extended summary (it replaces the stale graph's document maps)"
            )
        with self._lock:
            self.result = result
            self.vocabulary = vocabulary
            self._summary = summary
            self.invalidate()

    # ------------------------------------------------------------- dimensions

    @property
    def n_users(self) -> int:
        return self.result.n_users

    @property
    def n_communities(self) -> int:
        return self.result.n_communities

    @property
    def n_topics(self) -> int:
        return self.result.n_topics

    @property
    def n_words(self) -> int:
        return self.result.n_words

    @property
    def summary(self) -> GraphSummary:
        """The graph summary; distilled from the live graph on first use."""
        with self._lock:
            if self._summary is None:
                if self.graph is None:
                    raise RuntimeError(
                        "this store has no graph summary — refit and save a "
                        "self-contained artifact (repro fit), or attach the graph"
                    )
                self._summary = GraphSummary.from_graph(self.graph)
            return self._summary

    @property
    def stats(self) -> GraphStats:
        """Graph size statistics, served without the graph when summarised."""
        if self._summary is not None:
            return self._summary.stats()
        if self.graph is not None:
            return self.graph.stats()
        return self.summary.stats()  # raises with the explanatory message

    def _require_vocabulary(self) -> Vocabulary:
        if self.vocabulary is None:
            raise RuntimeError(
                "this store has no vocabulary — refit and save a self-contained "
                "artifact (repro fit), or construct the store with the graph"
            )
        return self.vocabulary

    # ------------------------------------------------------------ memberships

    def top_communities(self, k: int = 5) -> np.ndarray:
        """Memoised user -> top-``k`` community index, shape ``(U, k)``."""
        k = min(k, self.n_communities)
        with self._lock:
            if k not in self._top_communities:
                self._top_communities[k] = self.result.top_communities_per_user(k)
            return self._top_communities[k]

    def community_members(self, k: int = 5) -> list[np.ndarray]:
        """Memoised member user ids per community under top-``k`` assignment."""
        k = min(k, self.n_communities)
        with self._lock:
            if k not in self._members:
                top = self.top_communities(k)
                self._members[k] = [
                    np.flatnonzero((top == community).any(axis=1))
                    for community in range(self.n_communities)
                ]
            return self._members[k]

    # ------------------------------------------------------------ query index

    def query_index(self) -> dict[str, Query]:
        """Term -> :class:`Query` inverted index (Sect. 6.3.2).

        Served from the persisted summary; distilled from the live graph
        when the store was built from a fit.
        """
        with self._lock:
            if self._query_index is None:
                self._query_index = {
                    query.term: query for query in self.summary.queries
                }
            return self._query_index

    def indexed_queries(self, max_queries: int | None = None) -> list[Query]:
        """The selected queries, most frequent first."""
        queries = self.summary.queries
        return list(queries) if max_queries is None else list(queries[:max_queries])

    def relevant_users(self, term: str) -> np.ndarray:
        """Ground-truth relevant user set ``U*_q`` for an indexed term."""
        query = self.query_index().get(term)
        if query is None:
            raise KeyError(f"term {term!r} is not in the query index")
        return query.relevant_users

    # ---------------------------------------------------------------- ranking

    def _log_phi_matrix(self) -> np.ndarray:
        with self._lock:
            if self._log_phi is None:
                self._log_phi = np.log(np.maximum(self.result.phi, 1e-300))
            return self._log_phi

    def _eta_flat_matrix(self) -> np.ndarray:
        """``eta`` reshaped to ``(C, C*Z)`` so Eq. 19 is one matvec."""
        with self._lock:
            if self._eta_flat is None:
                eta = self.result.eta
                self._eta_flat = np.ascontiguousarray(
                    eta.reshape(self.n_communities, -1)
                )
            return self._eta_flat

    def query_word_ids(self, query: QueryLike) -> tuple[int, ...]:
        """In-vocabulary word ids of a query's terms (may be empty)."""
        vocabulary = self._require_vocabulary()
        terms = query.split() if isinstance(query, str) else list(query)
        return tuple(
            vocabulary.id_of(term) for term in terms if term in vocabulary
        )

    def query_topic_affinity(self, query: QueryLike) -> np.ndarray:
        """``prod_{w in q} phi_zw`` per topic, computed stably in log space.

        The returned affinities are rescaled by ``exp(-query_log_shift(q))``
        — a per-store, per-query constant that keeps the products from
        underflowing. Within one store the rescaling is monotone and
        harmless; consumers comparing scores *across* stores (the shard
        router) must undo it via :meth:`query_log_shift`. The shift is
        recorded into the shift cache as a side effect, so the router's
        rank-then-shift call pair computes the log affinities once.
        """
        key = self.query_word_ids(query)
        if not key:
            raise KeyError(f"no query term of {query!r} is in the vocabulary")
        with self._lock:
            log_affinity = self._log_phi_matrix()[:, list(key)].sum(axis=1)
            shift = float(log_affinity.max())
            self._shift_cache.put(key, shift)
        return np.exp(log_affinity - shift)

    def query_log_shift(self, query: QueryLike) -> float:
        """The log of the constant divided out of :meth:`query_topic_affinity`.

        ``scores(q) * exp(query_log_shift(q))`` is on the absolute Eq. 19
        scale, comparable across stores fitted on different corpora.
        Memoised alongside the rank cache (the shard router asks for the
        shift on every scatter-gather query, including cache hits).
        """
        key = self.query_word_ids(query)
        if not key:
            raise KeyError(f"no query term of {query!r} is in the vocabulary")
        cached = self._shift_cache.get(key)
        if cached is not None:
            return cached
        with self._lock:
            shift = float(self._log_phi_matrix()[:, list(key)].sum(axis=1).max())
            self._shift_cache.put(key, shift)
        return shift

    def scores(self, query: QueryLike) -> np.ndarray:
        """Eq. 19 scores for every community (unnormalised)."""
        with self._lock:
            affinity = self.query_topic_affinity(query)  # (Z,)
            # sum_z sum_c' eta[c, c', z] * theta[c', z] * affinity[z]
            weighted = self.result.theta * affinity[None, :]  # (C', Z)
            return self._eta_flat_matrix() @ weighted.ravel()

    def rank(self, query: QueryLike) -> list[tuple[int, float]]:
        """Communities sorted by Eq. 19 score, best first — LRU cached.

        Repeated queries are answered from the cache without recomputing
        scores (and, for artifact-backed stores, without any graph access).
        """
        registry = obs.get_registry()
        if not registry.enabled:
            return self._rank(query)
        started = time.perf_counter()
        before = self._rank_cache.hits
        ranking = self._rank(query)
        outcome = "hit" if self._rank_cache.hits > before else "miss"
        registry.histogram(
            "repro_rank_seconds", {"outcome": outcome}
        ).observe(time.perf_counter() - started)
        registry.counter("repro_rank_cache_total", {"outcome": outcome}).inc()
        return ranking

    def _rank(self, query: QueryLike) -> list[tuple[int, float]]:
        key = self.query_word_ids(query)
        if not key:
            raise KeyError(f"no query term of {query!r} is in the vocabulary")
        cached = self._rank_cache.get(key)
        if cached is not None:
            return list(cached)
        with self._lock:
            # double-checked: another thread may have filled the entry
            # while this one waited for the lock (peek keeps the hit/miss
            # accounting at one miss per logical call)
            cached = self._rank_cache.peek(key)
            if cached is not None:
                return list(cached)
            scores = self.scores(query)
            order = np.argsort(-scores)
            ranking = [(int(c), float(scores[c])) for c in order]
            self._rank_cache.put(key, ranking)
        return list(ranking)

    def rank_many(
        self, queries: Sequence[QueryLike]
    ) -> list[list[tuple[int, float]]]:
        """Eq. 19 rankings for a batch of queries in one fused pass.

        The gateway's micro-batcher funnels concurrent rank calls here:
        instead of ``B`` separate matvecs, the uncached queries' topic
        affinities are stacked into one ``(B, C'*Z)`` weight matrix and hit
        ``eta_flat`` in a single matmul. Cache hits are answered without
        recomputation; every miss lands in the LRU (and shift cache), so a
        batched query is indistinguishable from a sequential one afterwards.
        Raises :class:`KeyError` if *any* query has no in-vocabulary term —
        callers that need per-query error isolation should pre-validate
        with :meth:`query_word_ids`.
        """
        keys = [self.query_word_ids(query) for query in queries]
        for query, key in zip(queries, keys):
            if not key:
                raise KeyError(f"no query term of {query!r} is in the vocabulary")
        rankings: list = [None] * len(queries)
        misses: dict[tuple[int, ...], list[int]] = {}
        for i, key in enumerate(keys):
            cached = self._rank_cache.get(key)
            if cached is not None:
                rankings[i] = list(cached)
            else:
                misses.setdefault(key, []).append(i)
        if not misses:
            return rankings
        with self._lock:
            # double-check under the lock, then batch whatever remains
            pending = []
            for key, positions in misses.items():
                cached = self._rank_cache.peek(key)
                if cached is not None:
                    for i in positions:
                        rankings[i] = list(cached)
                else:
                    pending.append((key, positions))
            if pending:
                log_phi = self._log_phi_matrix()
                theta = self.result.theta  # (C', Z)
                eta_flat = self._eta_flat_matrix()  # (C, C'*Z)
                affinities = np.empty((len(pending), theta.shape[1]))
                for row, (key, _positions) in enumerate(pending):
                    log_affinity = log_phi[:, list(key)].sum(axis=1)
                    shift = float(log_affinity.max())
                    self._shift_cache.put(key, shift)
                    affinities[row] = np.exp(log_affinity - shift)
                # (B, C', Z) -> (B, C'*Z): one matmul for the whole batch
                weighted = theta[None, :, :] * affinities[:, None, :]
                scores = weighted.reshape(len(pending), -1) @ eta_flat.T
                orders = np.argsort(-scores, axis=1)
                for row, (key, positions) in enumerate(pending):
                    ranking = [
                        (int(c), float(scores[row, c])) for c in orders[row]
                    ]
                    self._rank_cache.put(key, ranking)
                    for i in positions:
                        rankings[i] = list(ranking)
        return rankings

    def top_k(self, query: QueryLike, k: int = 5) -> list[int]:
        """The top-``k`` community ids for a query."""
        return [c for c, _score in self.rank(query)[:k]]

    def query_topics(self, query: QueryLike, n: int = 3) -> list[tuple[int, float]]:
        """The query's dominant topics (the "query topics" box of Fig. 1(c))."""
        affinity = self.query_topic_affinity(query)
        total = affinity.sum()
        if total > 0:
            affinity = affinity / total
        order = np.argsort(-affinity)[:n]
        return [(int(z), float(affinity[z])) for z in order]

    def cache_info(self) -> dict[str, int]:
        """Ranking-cache statistics (the canonical schema — see
        :mod:`repro.serving.cache`)."""
        return self._rank_cache.info()

    # ----------------------------------------------------- diffusion serving

    def doc_user(self) -> np.ndarray:
        """``doc_id -> user_id`` (from the summary, or the live graph).

        Graph-backed stores read the graph directly so that wrapping a fit
        for a couple of predictions does not pay for the full summary
        distillation (which includes query selection).
        """
        with self._lock:
            if self._doc_user_cache is None:
                if self._summary is not None:
                    self._doc_user_cache = self._summary.doc_user
                elif self.graph is not None:
                    self._doc_user_cache = self.graph.doc_user
                else:
                    self._doc_user_cache = self.summary.doc_user  # raises helpfully
            return self._doc_user_cache

    def doc_timestamp(self) -> np.ndarray:
        """``doc_id -> time bucket`` (from the summary, or the live graph)."""
        with self._lock:
            if self._doc_time_cache is None:
                if self._summary is not None:
                    self._doc_time_cache = self._summary.doc_timestamp
                elif self.graph is not None:
                    self._doc_time_cache = self.graph.doc_time
                else:
                    self._doc_time_cache = self.summary.doc_timestamp
            return self._doc_time_cache

    def popularity(self) -> TopicPopularity:
        """The frozen topic-popularity table ``n_tz`` of the fit.

        Rebuilt from the persisted per-document timestamps and topic
        assignments — identical to the table the offline fit ended on.
        """
        with self._lock:
            if self._popularity is None:
                result = self.result
                timestamps = self.doc_timestamp()
                n_buckets = int(timestamps.max()) + 1 if len(timestamps) else 1
                self._popularity = TopicPopularity.from_assignments(
                    timestamps,
                    np.where(result.doc_topic >= 0, result.doc_topic, 0),
                    n_topics=result.n_topics,
                    n_time_buckets=n_buckets,
                )
            return self._popularity

    def popularity_matrix(self) -> np.ndarray:
        """Memoised ``(T, Z)`` popularity score matrix."""
        with self._lock:
            if self._pop_matrix is None:
                self._pop_matrix = self.popularity().score_matrix()
            return self._pop_matrix

    def user_features(self) -> UserFeatures:
        """The ``f_uv`` feature provider, rebuilt from persisted counts."""
        with self._lock:
            if self._user_features is None:
                if self._summary is None and self.graph is not None:
                    self._user_features = UserFeatures(self.graph)
                else:
                    summary = self.summary
                    self._user_features = UserFeatures.from_counts(
                        summary.followers,
                        summary.diffusions_made,
                        summary.docs_per_user,
                    )
            return self._user_features

    def aggregated_diffusion(self) -> np.ndarray:
        """Memoised ``sum_z eta`` as a ``(C, C)`` matrix (Fig. 7(a))."""
        with self._lock:
            if self._aggregated_eta is None:
                self._aggregated_eta = self.result.aggregated_diffusion_matrix()
            return self._aggregated_eta

    def diffusion_slice(self, topic: int) -> np.ndarray:
        """Memoised per-topic ``eta[:, :, z]`` slice (Fig. 7(b)/(c))."""
        if not 0 <= topic < self.n_topics:
            raise ValueError(f"topic {topic} out of range")
        with self._lock:
            if topic not in self._diffusion_slices:
                self._diffusion_slices[topic] = np.ascontiguousarray(
                    self.result.eta[:, :, topic]
                )
            return self._diffusion_slices[topic]

    # ----------------------------------------------------------------- labels

    def labels(self, n_words: int = 3) -> list[str]:
        """Memoised community labels from dominant-topic top words."""
        with self._lock:
            if n_words not in self._labels:
                self._labels[n_words] = compute_community_labels(
                    self.result, self._require_vocabulary(), n_words
                )
            return self._labels[n_words]

    # ---------------------------------------------------------------- fold-in

    def encode_tokens(self, tokens: Sequence[str]) -> np.ndarray:
        """Map raw tokens to fitted-vocabulary ids, skipping unknown words.

        Unlike :meth:`Vocabulary.encode`, this never mutates the
        vocabulary's frequency counters — the serving path is read-only.
        """
        vocabulary = self._require_vocabulary()
        return np.asarray(
            [vocabulary.id_of(token) for token in tokens if token in vocabulary],
            dtype=np.int64,
        )

    def fold_in(
        self,
        documents: Sequence[np.ndarray | Sequence[str]],
        users: Sequence[int | None] | None = None,
        n_sweeps: int = 25,
        burn_in: int = 5,
        rng: RngLike = None,
    ) -> FoldInResult:
        """Assign unseen documents via frozen-model Gibbs fold-in.

        Each document is either an array of vocabulary ids or a sequence of
        raw string tokens (encoded through the fitted vocabulary). See
        :func:`repro.serving.foldin.fold_in_documents`.
        """
        encoded = [
            np.asarray(doc, dtype=np.int64)
            if isinstance(doc, np.ndarray) or not (len(doc) and isinstance(doc[0], str))
            else self.encode_tokens(doc)
            for doc in documents
        ]
        return fold_in_documents(
            self.result,
            encoded,
            users=users,
            n_sweeps=n_sweeps,
            burn_in=burn_in,
            rng=rng,
        )


def ensure_store(
    source: "ProfileStore | CPDResult",
    graph: SocialGraph | None = None,
) -> ProfileStore:
    """Coerce the applications' legacy ``(result, graph)`` pair to a store.

    Passing an existing :class:`ProfileStore` returns it unchanged (the
    caller shares its caches); a raw :class:`CPDResult` gets wrapped with
    the provided graph.
    """
    if isinstance(source, ProfileStore):
        return source
    if not isinstance(source, CPDResult):
        raise TypeError(
            f"expected a ProfileStore or CPDResult, got {type(source).__name__}"
        )
    return ProfileStore(source, graph=graph)
