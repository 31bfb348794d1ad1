"""Collapsed Gibbs sampler for CPD (paper Sect. 4.1, Eqs. 13-16).

One :class:`CPDSampler` owns the mutable sampling state for one graph:

* per-document topic and community assignments with their count matrices
  (:class:`~repro.core.state.CPDState`),
* the Pólya-Gamma augmentation variables ``lambda`` (one per friendship
  link, Eq. 15) and ``delta`` (one per diffusion link, Eq. 16),
* the incremental topic-popularity table ``n_tz``.

Sweep mechanics follow Alg. 1: for every document, sample its topic by
Eq. 13 then its community by Eq. 14; afterwards redraw the augmentation
variables. Each sweep runs in a sweep kernel (:mod:`repro.core.kernel`)
selected by ``CPDConfig.sweep_kernel``: the default "compiled" kernel
resamples a whole partition in one C call, while "reference" loops the
literal conditionals below, the executable specification. The compiled
kernel also computes the augmentation tilts and draws and the Eq. 5
components from the context it keeps for the sampler's life; the numpy
bodies here (``_friendship_tilts``, ``_diffusion_tilts``,
``_link_components``) are their specification, which the reference
kernel runs. Link
incidence is stored as flat CSR index arrays shared by both kernels.

Two documented deviations from a literal reading (both noted in
DESIGN.md §3):

* A diffusion link's "shared topic" is its *source* document's topic, so
  incoming links contribute constants to the topic conditional and are
  skipped there (they still constrain the community conditional).
* The candidate community only perturbs ``pi_hat_u`` in the link factors —
  its second-order effect through ``theta_hat`` is ignored, exactly the
  ``(C_neg, Z_neg)`` estimation the paper writes under Eqs. 13-14.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..diffusion.features import UserFeatures
from ..diffusion.popularity import TopicPopularity
from ..graph.social_graph import SocialGraph, counts_to_indptr
from ..sampling.categorical import sample_log_categorical
from ..sampling.polya_gamma import log_psi
from ..sampling.rng import RngLike, ensure_rng
from .config import CPDConfig
from .kernel import DIFFUSION, FRIENDSHIP, SweepStats, make_kernel
from .parameters import DiffusionParameters
from .result import CPDResult
from .state import CPDState


def record_sweep(stats: SweepStats | None) -> None:
    """Fold one kernel sweep into the process metrics registry, if enabled."""
    registry = obs.get_registry()
    if registry.enabled and stats is not None:
        labels = {"kernel": stats.kernel}
        registry.histogram("repro_sweep_seconds", labels).observe(stats.seconds)
        registry.counter("repro_sweep_docs_total", labels).inc(stats.n_docs)
        registry.counter("repro_sweep_draws_total", labels).inc(stats.draws)
        registry.counter("repro_sweeps_total", labels).inc()


class CPDSampler:
    """E-step machinery: document sweeps plus augmentation-variable draws."""

    def __init__(
        self,
        graph: SocialGraph,
        config: CPDConfig,
        params: DiffusionParameters,
        rng: RngLike = None,
        fixed_communities: np.ndarray | None = None,
        initialize_assignments: bool = True,
    ) -> None:
        self.graph = graph
        self.config = config
        self.params = params
        self.rng = ensure_rng(rng)
        self.fixed_communities = (
            None if fixed_communities is None else np.asarray(fixed_communities, dtype=np.int64)
        )

        self.state = CPDState(graph, config)
        # the graph's read-only per-document arrays; appends replace them
        self._doc_user = graph.doc_user
        self._doc_time = graph.doc_time
        self._doc_lengths = graph.doc_lengths
        if initialize_assignments:
            self.state.random_init(self.rng, fixed_communities=self.fixed_communities)
        self._doc_time_ints = self._doc_time.tolist()

        self._build_link_structures()
        self._build_popularity()

        # Augmentation variables start at the PG(1, 0) mean of 1/4.
        self.lambdas = np.full(self.n_friend_links, 0.25)
        self.deltas = np.full(self.n_diff_links, 0.25)

        self.kernel = make_kernel(self)

    # ------------------------------------------------------------------ setup

    def _build_link_structures(self) -> None:
        """Flat CSR incidence arrays for friendship and diffusion links.

        ``f_csr_*``: for each user, the friendship links they touch (both
        endpoints). ``d_csr_*``: for each document, the diffusion links it
        touches (both endpoints, with the direction flag). ``dout_csr_*``:
        outgoing diffusion links only, for the topic conditional.
        """
        graph = self.graph
        self.n_friend_links = graph.n_friendship_links
        self.f_src = np.asarray([l.source for l in graph.friendship_links], dtype=np.int64)
        self.f_tgt = np.asarray([l.target for l in graph.friendship_links], dtype=np.int64)

        endpoints = np.concatenate([self.f_src, self.f_tgt])
        partners = np.concatenate([self.f_tgt, self.f_src])
        f_links = np.concatenate([np.arange(self.n_friend_links, dtype=np.int64)] * 2)
        order = np.argsort(endpoints, kind="stable")
        self.f_csr_indptr = counts_to_indptr(np.bincount(endpoints, minlength=graph.n_users))
        self.f_csr_neighbor = partners[order]
        self.f_csr_link = f_links[order]

        self.n_diff_links = graph.n_diffusion_links
        self.e_src = np.asarray([l.source_doc for l in graph.diffusion_links], dtype=np.int64)
        self.e_tgt = np.asarray([l.target_doc for l in graph.diffusion_links], dtype=np.int64)
        self.e_time = np.asarray([l.timestamp for l in graph.diffusion_links], dtype=np.int64)
        self._rebuild_diffusion_csr()

        self.user_features = UserFeatures(graph)
        if self.n_diff_links:
            self.e_features = self.user_features.pair_features_batch(
                self._doc_user[self.e_src], self._doc_user[self.e_tgt]
            )
        else:
            self.e_features = np.zeros((0, UserFeatures.N_FEATURES))

    def _rebuild_diffusion_csr(self) -> None:
        """Re-derive the per-document diffusion CSR arrays from ``e_*``.

        Shared by construction and the streaming append path; sized by the
        state's (possibly grown) document count, not the original graph's.
        """
        n_docs = self.state.n_docs
        doc_ends = np.concatenate([self.e_src, self.e_tgt])
        doc_others = np.concatenate([self.e_tgt, self.e_src])
        d_links = np.concatenate([np.arange(self.n_diff_links, dtype=np.int64)] * 2)
        d_is_source = np.concatenate(
            [np.ones(self.n_diff_links, dtype=bool), np.zeros(self.n_diff_links, dtype=bool)]
        )
        order = np.argsort(doc_ends, kind="stable")
        self.d_csr_indptr = counts_to_indptr(np.bincount(doc_ends, minlength=n_docs))
        self.d_csr_link = d_links[order]
        self.d_csr_other = doc_others[order]
        self.d_csr_is_source = d_is_source[order]

        out_order = np.argsort(self.e_src, kind="stable")
        self.dout_csr_indptr = counts_to_indptr(
            np.bincount(self.e_src, minlength=n_docs)
        )
        self.dout_csr_link = out_order.astype(np.int64)
        self.dout_csr_target = self.e_tgt[out_order]

    def _build_popularity(self) -> None:
        """(Re)build ``n_tz`` from the currently-assigned documents.

        Bucket count covers both document and link timestamps so the link
        factors can always index their row; unassigned documents (possible
        mid-append on the streaming path) contribute no counts.
        """
        n_buckets = 1
        if len(self._doc_time):
            n_buckets = max(n_buckets, int(self._doc_time.max()) + 1)
        if len(self.e_time):
            n_buckets = max(n_buckets, int(self.e_time.max()) + 1)
        self.popularity = TopicPopularity(
            n_topics=self.config.n_topics, n_time_buckets=n_buckets
        )
        assigned = self.state.doc_topic >= 0
        self.popularity.increment_many(
            self._doc_time[assigned], self.state.doc_topic[assigned]
        )

    # ------------------------------------------------------------- snapshots

    def export_snapshot(self) -> dict[str, np.ndarray]:
        """Assignment + augmentation snapshot (parallel E-step hand-off)."""
        return {
            "doc_community": self.state.doc_community.copy(),
            "doc_topic": self.state.doc_topic.copy(),
            "lambdas": self.lambdas.copy(),
            "deltas": self.deltas.copy(),
        }

    def load_snapshot(self, snapshot: dict[str, np.ndarray]) -> None:
        """Rebuild counts, popularity and augmentation state from a snapshot."""
        self.state.load_assignments(snapshot["doc_community"], snapshot["doc_topic"])
        self.lambdas = np.asarray(snapshot["lambdas"], dtype=np.float64).copy()
        self.deltas = np.asarray(snapshot["deltas"], dtype=np.float64).copy()
        self._build_popularity()

    def apply_assignments(self, doc_ids: np.ndarray, communities: np.ndarray, topics: np.ndarray) -> None:
        """Overwrite assignments for ``doc_ids`` (merging worker results).

        The kernel moves the whole batch at once (``move_documents``): one
        C call on the compiled kernel, batched scatter-adds on the
        reference kernel. Counts and popularity table stay in sync.
        """
        self.kernel.move_documents(doc_ids, communities, topics)

    # ------------------------------------------------------------- streaming

    @classmethod
    def warm_start(
        cls,
        graph: SocialGraph,
        result: CPDResult,
        rng: RngLike = None,
    ) -> "CPDSampler":
        """A sampler resuming from a fitted result's final assignments.

        The streaming refresher (:mod:`repro.stream.refresh`) starts here:
        counts, popularity and diffusion parameters match the fit's end
        state, so a re-sweep continues the chain instead of restarting it.
        ``result.doc_community`` / ``doc_topic`` must cover ``graph``.
        """
        sampler = cls(
            graph,
            result.config,
            result.diffusion.copy(),
            rng=rng,
            initialize_assignments=False,  # loaded from the result instead
        )
        sampler.state.load_assignments(result.doc_community, result.doc_topic)
        sampler._build_popularity()
        return sampler

    def append_documents(
        self,
        documents: list[np.ndarray],
        users: np.ndarray,
        timestamps: np.ndarray,
        communities: np.ndarray | None = None,
        topics: np.ndarray | None = None,
    ) -> np.ndarray:
        """Grow the sampler with appended documents (streaming ingest).

        Documents hold fitted-vocabulary word ids; pass ``communities`` /
        ``topics`` (e.g. fold-in assignments) to register them immediately,
        otherwise they stay unassigned until :meth:`assign_documents` (which
        must be used instead of the raw ``CPDState.assign_many`` so the
        popularity table stays in sync). Count matrices, CSR layouts and the
        popularity table are extended in place — no cold rebuild. Returns
        the new document ids.
        """
        users = np.asarray(users, dtype=np.int64)
        timestamps = np.asarray(timestamps, dtype=np.int64)
        if timestamps.shape != users.shape:
            raise ValueError("timestamps must align with users")
        if len(timestamps) and timestamps.min() < 0:
            raise ValueError("timestamps must be non-negative")
        # validate everything BEFORE the state grows: a failed append must
        # leave the sampler exactly as it was
        if (communities is None) != (topics is None):
            raise ValueError("pass communities and topics together (or neither)")
        if communities is not None:
            communities = np.asarray(communities, dtype=np.int64)
            topics = np.asarray(topics, dtype=np.int64)
            if communities.shape != users.shape or topics.shape != users.shape:
                raise ValueError("communities and topics must align with users")
            if len(communities) and (
                communities.min() < 0
                or communities.max() >= self.config.n_communities
                or topics.min() < 0
                or topics.max() >= self.config.n_topics
            ):
                raise ValueError("community or topic ids out of range")
        new_ids = self.state.append_documents(documents, users)
        if len(new_ids) == 0:
            return new_ids
        self._doc_user = self.state._doc_user
        self._doc_time = np.concatenate([self._doc_time, timestamps])
        self._doc_time_ints.extend(timestamps.tolist())
        self._doc_lengths = self.state._doc_word_lengths
        # the new documents touch no links yet: extend the doc-indexed CSR
        # pointers with empty ranges
        n_new = len(new_ids)
        self.d_csr_indptr = np.concatenate(
            [self.d_csr_indptr, np.full(n_new, self.d_csr_indptr[-1], dtype=np.int64)]
        )
        self.dout_csr_indptr = np.concatenate(
            [self.dout_csr_indptr, np.full(n_new, self.dout_csr_indptr[-1], dtype=np.int64)]
        )
        if len(timestamps) and int(timestamps.max()) >= self.popularity.n_time_buckets:
            self._build_popularity()  # new time buckets: rare full rebuild
        if communities is not None:
            self.assign_documents(new_ids, communities, topics)
        self.kernel.append_documents(int(new_ids[0]))
        return new_ids

    def assign_documents(
        self, doc_ids: np.ndarray, communities: np.ndarray, topics: np.ndarray
    ) -> None:
        """Assign currently-unassigned documents, popularity included.

        The sampler-level companion to :meth:`CPDState.assign_many`: the
        state method alone would leave the ``n_tz`` table stale, and the
        next sweep would decrement counts that were never incremented.
        """
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        topics = np.asarray(topics, dtype=np.int64)
        self.state.assign_many(doc_ids, communities, topics)
        self.popularity.increment_many(self._doc_time[doc_ids], topics)

    def append_diffusion_links(
        self,
        source_docs: np.ndarray,
        target_docs: np.ndarray,
        timestamps: np.ndarray,
    ) -> None:
        """Grow the sampler with appended diffusion links (streaming ingest).

        Endpoint documents must already exist (append them first). The
        per-document CSR incidence arrays are re-derived from the extended
        edge lists; augmentation variables for the new links start at the
        PG(1, 0) mean, matching cold initialisation.
        """
        source_docs = np.asarray(source_docs, dtype=np.int64)
        target_docs = np.asarray(target_docs, dtype=np.int64)
        timestamps = np.asarray(timestamps, dtype=np.int64)
        n_new = len(source_docs)
        if target_docs.shape != source_docs.shape or timestamps.shape != source_docs.shape:
            raise ValueError("source, target and timestamp arrays must align")
        if n_new == 0:
            return
        n_docs = self.state.n_docs
        if (
            source_docs.min() < 0
            or target_docs.min() < 0
            or source_docs.max() >= n_docs
            or target_docs.max() >= n_docs
        ):
            raise ValueError("appended links reference unknown documents")
        if timestamps.min() < 0:
            raise ValueError("timestamps must be non-negative")
        self.e_src = np.concatenate([self.e_src, source_docs])
        self.e_tgt = np.concatenate([self.e_tgt, target_docs])
        self.e_time = np.concatenate([self.e_time, timestamps])
        self.n_diff_links += n_new
        new_features = self.user_features.pair_features_batch(
            self._doc_user[source_docs], self._doc_user[target_docs]
        )
        self.e_features = (
            np.vstack([self.e_features, new_features]) if len(self.e_features) else new_features
        )
        self.deltas = np.concatenate([self.deltas, np.full(n_new, 0.25)])
        self._rebuild_diffusion_csr()
        if int(timestamps.max()) >= self.popularity.n_time_buckets:
            self._build_popularity()
        self.kernel.rebuild_link_layout()

    # ------------------------------------------------------------- properties

    @property
    def uses_profile_diffusion(self) -> bool:
        """True when diffusion links go through the Eq. 5 profile factor."""
        return self.config.model_diffusion and self.config.heterogeneity

    @property
    def uses_similarity_diffusion(self) -> bool:
        """True in the "no heterogeneity" ablation: E modelled like F (Eq. 3)."""
        return self.config.model_diffusion and not self.config.heterogeneity

    # -------------------------------------------------------------- doc sweep

    def sweep_documents(self, doc_ids: np.ndarray | None = None):
        """One Gibbs sweep (Alg. 1 steps 3-6) over ``doc_ids`` (default: all).

        The kernel owns the whole partition: the reference kernel loops
        :meth:`_resample_document`, the compiled kernel resamples the range
        in one fused C call. Every kernel reports what it did via a
        :class:`~repro.core.kernel.SweepStats`, returned here and — when
        telemetry is on — folded into the process registry.
        """
        stats = self.kernel.sweep(doc_ids)
        record_sweep(stats)
        return stats

    def _resample_document(self, doc_id: int) -> None:
        """Alg. 1 steps 3-6 for one document, through the literal loops."""
        state = self.state
        timestamp = self._doc_time_ints[doc_id]
        old_community, old_topic = state.unassign(doc_id)
        self.popularity.decrement(timestamp, old_topic)

        topic = sample_log_categorical(
            self.reference_topic_log_weights(doc_id, old_community), self.rng
        )
        if self.fixed_communities is not None:
            community = int(self.fixed_communities[doc_id])
        else:
            community = sample_log_categorical(
                self.reference_community_log_weights(doc_id, topic), self.rng
            )

        state.assign(doc_id, community, topic)
        self.popularity.increment(timestamp, topic)

    # ------------------------------------------------------- topic conditional

    def reference_topic_log_weights(self, doc_id: int, community: int) -> np.ndarray:
        """Eq. 13: community-topic prior x word likelihood x diffusion factors.

        Literal per-word / per-link loops; the compiled kernel must match
        this to floating-point noise (tests/test_core_kernel.py).
        """
        state = self.state

        # community-topic term (n^z_c + alpha); denominator is z-independent
        log_weights = np.log(state.community_topic[community] + state.alpha)

        # block word-likelihood term of Eq. 13
        lo, hi = state._unique_indptr[doc_id], state._unique_indptr[doc_id + 1]
        words = state._unique_words[lo:hi]
        counts = state._unique_counts[lo:hi]
        for word, count in zip(words, counts):
            steps = np.arange(count)
            log_weights += np.log(
                state.topic_word[:, word][:, None] + state.beta + steps
            ).sum(axis=1)
        total_steps = np.arange(self._doc_lengths[doc_id])
        log_weights -= np.log(
            state.topic_totals[:, None] + state.n_words * state.beta + total_steps
        ).sum(axis=1)

        # diffusion-link factors (outgoing links only; the shared topic is the
        # source document's, so incoming links are z-constants)
        if self.uses_profile_diffusion:
            start, end = self.dout_csr_indptr[doc_id], self.dout_csr_indptr[doc_id + 1]
            for position in range(start, end):
                link_index = int(self.dout_csr_link[position])
                target_doc = int(self.dout_csr_target[position])
                scores = self._link_scores_per_topic(doc_id, target_doc, link_index)
                log_weights += log_psi(scores, self.deltas[link_index])

        return log_weights

    def _link_scores_per_topic(
        self, source_doc: int, target_doc: int, link_index: int
    ) -> np.ndarray:
        """Eq. 5 logits for one link as a function of the candidate topic z."""
        state = self.state
        params = self.params
        theta = state.theta_hat()  # (C, Z)
        pi_u = state.pi_hat_user(self._doc_user[source_doc])
        pi_v = state.pi_hat_user(self._doc_user[target_doc])
        weighted_u = pi_u[:, None] * theta  # (C, Z)
        weighted_v = pi_v[:, None] * theta
        bilinear = np.einsum("cz,cdz,dz->z", weighted_u, params.eta, weighted_v)

        scores = params.comm_weight * bilinear + params.bias
        if self.config.use_topic_factor:
            scores = scores + params.pop_weight * self.popularity.scores(
                int(self.e_time[link_index])
            )
        if self.config.use_individual_factor:
            scores = scores + float(params.nu @ self.e_features[link_index])
        return scores

    # --------------------------------------------------- community conditional

    def reference_community_log_weights(self, doc_id: int, topic: int) -> np.ndarray:
        """Eq. 14: user prior x content term x friendship & diffusion factors.

        Literal per-link loops; the compiled kernel must match this to
        floating-point noise (tests/test_core_kernel.py).
        """
        state = self.state
        cfg = self.config
        user = int(self._doc_user[doc_id])

        base_num = state.user_community[user] + state.rho  # counts exclude doc
        denominator = state.user_totals[user] + 1.0 + cfg.n_communities * state.rho

        log_weights = np.log(base_num)
        if cfg.community_uses_content:
            log_weights = log_weights + np.log(
                state.community_topic[:, topic] + state.alpha
            ) - np.log(state.community_totals + cfg.n_topics * state.alpha)

        if cfg.model_friendship:
            start, end = self.f_csr_indptr[user], self.f_csr_indptr[user + 1]
            for position in range(start, end):
                neighbor = int(self.f_csr_neighbor[position])
                link_index = int(self.f_csr_link[position])
                pi_v = state.pi_hat_user(neighbor)
                dots = (base_num @ pi_v + pi_v) / denominator
                log_weights += log_psi(dots, self.lambdas[link_index])

        start, end = self.d_csr_indptr[doc_id], self.d_csr_indptr[doc_id + 1]
        if self.uses_profile_diffusion:
            theta = state.theta_hat()
            for position in range(start, end):
                link_index = int(self.d_csr_link[position])
                other_doc = int(self.d_csr_other[position])
                is_source = bool(self.d_csr_is_source[position])
                link_topic = topic if is_source else int(state.doc_topic[other_doc])
                if link_topic < 0:
                    continue  # the other endpoint is mid-resample
                q = self._community_projection(other_doc, link_topic, is_source, theta)
                bilinear = (base_num @ q + q) / denominator
                constant = self.params.bias
                if cfg.use_topic_factor:
                    constant += self.params.pop_weight * self.popularity.score(
                        int(self.e_time[link_index]), link_topic
                    )
                if cfg.use_individual_factor:
                    constant += float(self.params.nu @ self.e_features[link_index])
                scores = self.params.comm_weight * bilinear + constant
                log_weights += log_psi(scores, self.deltas[link_index])
        elif self.uses_similarity_diffusion:
            for position in range(start, end):
                link_index = int(self.d_csr_link[position])
                other_doc = int(self.d_csr_other[position])
                pi_w = state.pi_hat_user(int(self._doc_user[other_doc]))
                dots = (base_num @ pi_w + pi_w) / denominator
                log_weights += log_psi(dots, self.deltas[link_index])

        return log_weights

    def _community_projection(
        self, other_doc: int, link_topic: int, is_source: bool, theta: np.ndarray
    ) -> np.ndarray:
        """``q`` such that the link's bilinear term is ``a_cand @ q``.

        ``a_cand`` is the candidate-dependent ``pi_hat`` of the resampled
        document's user; the other endpoint is folded into ``q``.
        """
        pi_other = self.state.pi_hat_user(int(self._doc_user[other_doc]))
        theta_z = theta[:, link_topic]
        eta_z = self.params.eta[:, :, link_topic]
        other_weighted = pi_other * theta_z
        if is_source:
            return theta_z * (eta_z @ other_weighted)
        return theta_z * (eta_z.T @ other_weighted)

    # -------------------------------------------------- augmentation variables

    def friendship_dots(self) -> np.ndarray:
        """``pi_hat_u . pi_hat_v`` for every friendship link (Eq. 3 logits)."""
        if self.n_friend_links == 0:
            return np.zeros(0)
        return self.kernel.link_tilts(FRIENDSHIP, 0, self.n_friend_links)

    def _friendship_tilts(self, start: int, stop: int) -> np.ndarray:
        """Numpy spec of the Eq. 15 tilts for friendship links ``[start, stop)``."""
        pi = self.state.pi_hat_view()
        return np.einsum(
            "ij,ij->i",
            np.take(pi, self.f_src[start:stop], axis=0),
            np.take(pi, self.f_tgt[start:stop], axis=0),
        )

    def diffusion_logits(
        self,
        source_docs: np.ndarray | None = None,
        target_docs: np.ndarray | None = None,
        timestamps: np.ndarray | None = None,
        features: np.ndarray | None = None,
    ) -> np.ndarray:
        """Eq. 5 logits for a batch of document pairs (default: all of E)."""
        if source_docs is None:
            source_docs, target_docs, timestamps = self.e_src, self.e_tgt, self.e_time
            features = self.e_features
        return self.params.logits(
            self.diffusion_components(source_docs, target_docs, timestamps, features)
        )

    def diffusion_components(
        self,
        source_docs: np.ndarray,
        target_docs: np.ndarray,
        timestamps: np.ndarray,
        features: np.ndarray | None = None,
    ) -> dict[str, np.ndarray]:
        """Raw per-factor values for a batch of pairs (M-step features).

        The kernel computes the community and popularity columns
        (``link_components``: C in the compiled kernel, the numpy spec
        :meth:`_link_components` in the reference one). A source document
        without a topic reads as topic 0.
        """
        source_docs = np.asarray(source_docs, dtype=np.int64)
        target_docs = np.asarray(target_docs, dtype=np.int64)
        timestamps = np.asarray(timestamps, dtype=np.int64)
        n = len(source_docs)
        if n == 0:
            return {
                "community": np.zeros(0),
                "popularity": np.zeros(0),
                "features": np.zeros((0, UserFeatures.N_FEATURES)),
            }
        community_score, popularity_score = self.kernel.link_components(
            source_docs, target_docs, timestamps
        )

        if features is None:
            if self.user_features is None:
                raise RuntimeError(
                    "graph-free sampler cannot derive pair features; pass them explicitly"
                )
            features = self.user_features.pair_features_batch(
                self._doc_user[source_docs], self._doc_user[target_docs]
            )
        if not self.config.use_individual_factor:
            features = np.zeros_like(features)
        return {
            "community": community_score,
            "popularity": popularity_score,
            "features": features,
        }

    def _link_components(
        self, source_docs: np.ndarray, target_docs: np.ndarray, timestamps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Numpy spec of the Eq. 5 community and popularity components.

        The community term ``sum_{c,d} (pi_uc theta_cz) eta_cdz (pi_vd
        theta_dz)`` is folded per user instead of per link: ``A = eta *
        theta_c * theta_d`` once as a ``(C, C, Z)`` array, then ``P = pi @
        A`` as ``(U, C, Z)``, and a link scores ``P[u_src, :, z] .
        pi[u_tgt]``. The same double sum in another order (agrees to ~1e-15
        relative). It costs ``U * C^2 * Z`` per call whatever the batch
        size.
        """
        state = self.state
        pi = state.pi_hat_view()
        theta = state.theta_hat_view()
        link_topics = state.doc_topic[source_docs]
        link_topics = np.where(link_topics >= 0, link_topics, 0)

        if self.uses_similarity_diffusion:
            community_score = np.einsum(
                "ij,ij->i",
                pi[self._doc_user[source_docs]],
                pi[self._doc_user[target_docs]],
            )
        else:
            folded = self.params.eta * theta[:, None, :] * theta[None, :, :]  # (C, C, Z)
            n_communities, _, n_topics = folded.shape
            per_user = (pi @ folded.reshape(n_communities, -1)).reshape(
                len(pi), n_communities, n_topics
            )
            # rows (u, :, z) of a (U * Z, C) copy: np.take of whole rows is
            # far cheaper than mixed fancy indexing, and copies the same values
            by_topic = per_user.transpose(0, 2, 1).reshape(-1, n_communities)
            source_rows = np.take(
                by_topic, self._doc_user[source_docs] * n_topics + link_topics, axis=0
            )  # (n, C)
            community_score = np.einsum(
                "nd,nd->n",
                source_rows,
                np.take(pi, self._doc_user[target_docs], axis=0),
            )

        if self.config.use_topic_factor:
            matrix = self.popularity.score_matrix()
            popularity_score = matrix[timestamps, link_topics]
        else:
            popularity_score = np.zeros(len(source_docs))
        return community_score, popularity_score

    def sample_lambdas(self) -> np.ndarray | None:
        """Eq. 15: ``lambda_uv ~ PG(1, pi_hat_u . pi_hat_v)`` for every F link.

        Returns the tilts, :meth:`friendship_dots` of the current state,
        or ``None`` when nothing is drawn.
        """
        if self.n_friend_links == 0 or not self.config.model_friendship:
            return None
        self.lambdas, dots = self._draw_lambdas(0, self.n_friend_links)
        return dots

    def sample_deltas(self) -> None:
        """Eq. 16: ``delta_ij ~ PG(1, logit_ij)`` for every E link."""
        if self.n_diff_links == 0 or not self.config.model_diffusion:
            return
        self.deltas = self.draw_delta_range(0, self.n_diff_links)

    def draw_lambda_range(self, start: int, stop: int) -> np.ndarray:
        """Fresh Eq. 15 draws for friendship links ``[start, stop)``.

        The parallel runner fuses the per-link draws into the workers by
        handing each a contiguous link range; the serial
        :meth:`sample_lambdas` draws the full range.
        """
        return self._draw_lambdas(start, stop)[0]

    def _draw_lambdas(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Eq. 15 draws for friendship links ``[start, stop)`` and their tilts.

        The kernel tilts and draws (``draw_pg``: C in the compiled kernel,
        :meth:`_friendship_tilts` and numpy rounds in the reference one);
        both read the same uniform blocks.
        """
        return self.kernel.draw_pg(FRIENDSHIP, start, stop, self.rng)

    def draw_delta_range(self, start: int, stop: int) -> np.ndarray:
        """Fresh Eq. 16 draws for diffusion links ``[start, stop)``.

        The kernel tilts and draws (``draw_pg``), as for the lambdas.
        """
        return self.kernel.draw_pg(DIFFUSION, start, stop, self.rng)[0]

    def _diffusion_tilts(self, start: int, stop: int) -> np.ndarray:
        """Numpy spec of the Eq. 16 tilts for diffusion links ``[start, stop)``:
        the Eq. 5 logits, or ``pi_hat_u . pi_hat_v`` in similarity mode."""
        if self.uses_similarity_diffusion:
            pi = self.state.pi_hat_view()
            return np.einsum(
                "ij,ij->i",
                pi[self._doc_user[self.e_src[start:stop]]],
                pi[self._doc_user[self.e_tgt[start:stop]]],
            )
        return self.diffusion_logits(
            self.e_src[start:stop],
            self.e_tgt[start:stop],
            self.e_time[start:stop],
            self.e_features[start:stop],
        )

    # ---------------------------------------------------------------- M-step

    def aggregate_eta(self) -> np.ndarray:
        """Alg. 1 step 12: re-estimate eta from current assignments.

        Counts ``(c_source, c_target, z_source)`` over diffusion links with
        one scatter-add, adds ``eta_smoothing`` so unseen cells keep mass,
        and normalises globally (probabilities of "community-community-topic"
        diffusion events, matching the magnitudes of the paper's Fig. 5(c)).
        """
        cfg = self.config
        counts = np.full(
            (cfg.n_communities, cfg.n_communities, cfg.n_topics), cfg.eta_smoothing
        )
        if self.n_diff_links:
            self.eta_counts_range(0, self.n_diff_links, out=counts)
        return counts / counts.sum()

    def eta_counts_range(
        self, start: int, stop: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Raw eta counts over diffusion links ``[start, stop)`` (no smoothing).

        The scatter-add half of :meth:`aggregate_eta`, exposed per range so
        parallel workers can each count their own link partition; the
        coordinator sums the partial tables, smooths, and normalises. A link
        with an unassigned endpoint (community -1) is skipped, as the sweep
        skips a mid-resample endpoint.
        """
        cfg = self.config
        if out is None:
            out = np.zeros((cfg.n_communities, cfg.n_communities, cfg.n_topics))
        if stop > start:
            state = self.state
            src = self.e_src[start:stop]
            tgt = self.e_tgt[start:stop]
            c_src = state.doc_community[src]
            c_tgt = state.doc_community[tgt]
            cells = (c_src * cfg.n_communities + c_tgt) * cfg.n_topics + state.doc_topic[src]
            cells = cells[(c_src >= 0) & (c_tgt >= 0)]
            out += np.bincount(cells, minlength=out.size).reshape(out.shape)
        return out
