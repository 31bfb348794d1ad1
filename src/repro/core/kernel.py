"""Sweep kernels: the array-native hot path of the Gibbs E-step.

``CPDSampler`` delegates the Eq. 13 / Eq. 14 conditional computation to a
kernel object selected by ``CPDConfig.sweep_kernel``:

* :class:`ReferenceKernel` delegates back to the sampler's literal
  per-word / per-link loops — the executable specification of the model.
* :class:`VectorizedKernel` computes the same log-weights with no Python
  iteration inside a document: the ascending-factorial word likelihood is
  evaluated through the ``gammaln`` identity ``sum_{s<m} log(x + s) =
  gammaln(x + m) - gammaln(x)`` (with a direct log-gather fast path for the
  dominant count==1 words), and every incident link of the document is
  scored in one batch against the sampler's CSR incidence arrays.

The vectorized kernel keeps per-document work down to a handful of array
operations by materialising everything per-link in CSR order once — link
timestamps, feature projections ``nu^T f``, augmentation variables, and the
two ``eta`` orientations — so the hot path reads contiguous slices instead
of doing fancy gathers, and by folding the per-link ``log_psi`` sum into
``0.5 * (sum_l w_l - x . w^2)`` (one matvec per factor group).

* :class:`CompiledKernel` runs the whole sweep — conditional builds,
  categorical draws, and counting-state updates — inside one C function
  compiled at first use (:mod:`repro.core._compiled`); when no C toolchain
  is available construction falls back to the vectorized kernel with a
  one-time warning (DESIGN.md §10).

All kernels read the same mutable state, so they are interchangeable
mid-fit; the equivalence argument and parity tests live in DESIGN.md §4,
§10 and ``tests/test_core_kernel.py``.
"""

from __future__ import annotations

import ctypes
import time
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..sampling.categorical import draw_log_categorical, sample_log_categorical
from . import _compiled
from .layout import split_word_multiplicity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .gibbs import CPDSampler

#: last compiled-backend fallback, for CLI/diagnostics: the reason string,
#: and whether the one-per-process warning has fired already
_FALLBACK_STATE: dict = {"reason": None, "warned": False}


def compiled_fallback_reason() -> str | None:
    """Why the last ``sweep_kernel="compiled"`` request fell back, if it did."""
    return _FALLBACK_STATE["reason"]


def reset_fallback_state() -> None:
    """Forget past fallbacks so the next one warns again (test hook)."""
    _FALLBACK_STATE["reason"] = None
    _FALLBACK_STATE["warned"] = False


def _note_fallback(reason: str) -> None:
    _FALLBACK_STATE["reason"] = reason
    if not _FALLBACK_STATE["warned"]:
        _FALLBACK_STATE["warned"] = True
        warnings.warn(
            f"compiled sweep kernel unavailable ({reason}); "
            "falling back to the vectorized kernel",
            RuntimeWarning,
            stacklevel=4,
        )


def make_kernel(sampler: "CPDSampler"):
    """Build the sweep kernel selected by ``sampler.config.sweep_kernel``."""
    if sampler.config.sweep_kernel == "reference":
        return ReferenceKernel(sampler)
    if sampler.config.sweep_kernel == "compiled":
        try:
            return CompiledKernel(sampler)
        except _compiled.CompiledBackendUnavailable as error:
            _note_fallback(str(error))
            kernel = VectorizedKernel(sampler)
            kernel.fallback_reason = str(error)
            return kernel
    return VectorizedKernel(sampler)


@dataclass(frozen=True)
class SweepStats:
    """What one kernel sweep did — every backend returns one.

    For the compiled backend this is the Python face of the C call's
    outputs (documents processed, uniforms consumed); the Python kernels
    fill the same fields so telemetry reads one shape regardless of which
    backend ran.
    """

    kernel: str
    n_docs: int
    draws: int
    seconds: float


def _python_sweep(sampler: "CPDSampler", doc_ids: np.ndarray | None) -> int:
    """Per-document resample loop shared by the Python-driven kernels.

    Returns the number of documents resampled.
    """
    if doc_ids is None:
        ids = range(sampler.state.n_docs)  # includes stream-appended documents
    else:
        # iterate the int64 array directly — no per-sweep list
        # materialization; copy=False keeps the common case allocation-free
        ids = np.asarray(doc_ids, dtype=np.int64)
    for doc_id in ids:
        sampler._resample_document(doc_id)
    return len(ids)


def _timed_python_sweep(kernel, doc_ids: np.ndarray | None) -> SweepStats:
    sampler = kernel.sampler
    started = time.perf_counter()
    n_docs = _python_sweep(sampler, doc_ids)
    seconds = time.perf_counter() - started
    draws_per_doc = 1 if sampler.fixed_communities is not None else 2
    return SweepStats(
        kernel=kernel.name,
        n_docs=n_docs,
        draws=draws_per_doc * n_docs,
        seconds=seconds,
    )


class ReferenceKernel:
    """Per-word / per-link loop implementation (the executable spec)."""

    name = "reference"
    #: the fully-validating draw — identical math and RNG consumption to the
    #: fast path, so matched seeds stay aligned across kernels
    draw = staticmethod(sample_log_categorical)

    def __init__(self, sampler: "CPDSampler") -> None:
        self.sampler = sampler

    def topic_log_weights(self, doc_id: int, community: int) -> np.ndarray:
        return self.sampler.reference_topic_log_weights(doc_id, community)

    def community_log_weights(self, doc_id: int, topic: int) -> np.ndarray:
        return self.sampler.reference_community_log_weights(doc_id, topic)

    def append_documents(self, first_new_doc: int) -> None:
        """No-op: the reference loops read the sampler's arrays directly."""

    def rebuild_link_layout(self) -> None:
        """No-op: the reference loops read the sampler's arrays directly."""

    def sweep(self, doc_ids: np.ndarray | None = None) -> SweepStats:
        """One Gibbs sweep (Alg. 1 steps 3-6) over ``doc_ids`` (default: all)."""
        return _timed_python_sweep(self, doc_ids)


class VectorizedKernel:
    """Array-native implementation of the Eq. 13 / Eq. 14 conditionals."""

    name = "vectorized"
    #: trusted-input draw; the kernel's log-weights are finite by
    #: construction, so the validation passes are skipped
    draw = staticmethod(draw_log_categorical)

    def __init__(self, sampler: "CPDSampler") -> None:
        self.sampler = sampler
        self.state = sampler.state
        config = sampler.config

        # config- and prior-derived constants (fixed for the sampler's life)
        self._profile_mode = sampler.uses_profile_diffusion
        self._similarity_mode = sampler.uses_similarity_diffusion
        self._model_friendship = config.model_friendship
        self._use_topic_factor = config.use_topic_factor
        self._use_individual_factor = config.use_individual_factor
        self._community_uses_content = config.community_uses_content
        state = sampler.state
        self._alpha = state.alpha
        self._rho = state.rho
        self._beta = state.beta
        self._words_beta = state.n_words * state.beta
        self._topics_alpha = config.n_topics * state.alpha
        self._denominator_offset = 1.0 + config.n_communities * state.rho

        self._build_word_layout(sampler)
        self._build_link_layout(sampler)

        # identity-keyed caches over per-iteration arrays (see _refresh_caches)
        self._eta_source: np.ndarray | None = None
        self._nu_source: np.ndarray | None = None
        self._lambdas_source: np.ndarray | None = None
        self._deltas_source: np.ndarray | None = None

    # ---------------------------------------------------------------- layout

    def _build_word_layout(self, sampler: "CPDSampler") -> None:
        """CSR doc -> (word, count) layout, split by multiplicity.

        Words occurring once in a document (the dominant case in short
        social-media posts) go through a plain log-gather; repeated words
        go through the two-``gammaln`` ascending-factorial form.
        """
        state = sampler.state
        split = split_word_multiplicity(
            state._unique_words, state._unique_counts, state._unique_indptr
        )
        self.ws_words = split["ws_words"]
        self.wm_words = split["wm_words"]
        self.wm_counts = split["wm_counts"]
        self.ws_indptr = split["ws_indptr"]
        self.wm_indptr = split["wm_indptr"]
        # plain-int copies: python-int indexing is markedly cheaper on the
        # hot path than numpy scalar extraction
        self._ws_indptr = self.ws_indptr.tolist()
        self._wm_indptr = self.wm_indptr.tolist()
        self._doc_lengths = sampler._doc_lengths.astype(np.float64).tolist()

    def _build_link_layout(self, sampler: "CPDSampler") -> None:
        """Static per-link arrays materialised in CSR order.

        Reordering once here turns every per-document access into a
        contiguous slice (a view) instead of a fancy gather.
        """
        self._f_indptr = sampler.f_csr_indptr.tolist()
        self._d_indptr = sampler.d_csr_indptr.tolist()
        self._dout_indptr = sampler.dout_csr_indptr.tolist()
        self._doc_user = sampler._doc_user.tolist()

        self._d_other = sampler.d_csr_other
        self._d_orientation = sampler.d_csr_is_source.astype(np.int8)
        # offset into the flattened [orientation, z] eta table
        self._d_orientation_offset = (
            sampler.d_csr_is_source.astype(np.int64) * sampler.config.n_topics
        )
        self._d_other_user = sampler._doc_user[sampler.d_csr_other]
        self._d_time = sampler.e_time[sampler.d_csr_link]
        self._dout_target_user = sampler._doc_user[sampler.dout_csr_target]
        self._dout_time = sampler.e_time[sampler.dout_csr_link]

        # which documents have a self-link (the one way the document being
        # resampled can appear as its own "other endpoint")
        doc_self_link = np.zeros(sampler.state.n_docs, dtype=bool)
        doc_self_link[sampler.e_src[sampler.e_src == sampler.e_tgt]] = True
        self._doc_self_link = doc_self_link.tolist()

    # ------------------------------------------------------- streaming appends

    def append_documents(self, first_new_doc: int) -> None:
        """Extend the word layout with documents appended to the sampler.

        The streaming update-in-place path: only the new documents'
        (word, count) rows are split and appended — existing layout entries
        are untouched — and the doc-indexed link bookkeeping is re-pointed
        at the sampler's extended CSR arrays (the new documents have no
        incident links yet).
        """
        sampler = self.sampler
        state = sampler.state
        first = int(state._unique_indptr[first_new_doc])
        split = split_word_multiplicity(
            state._unique_words[first:],
            state._unique_counts[first:],
            state._unique_indptr[first_new_doc:] - first,
        )
        self.ws_words = np.concatenate([self.ws_words, split["ws_words"]])
        self.wm_words = np.concatenate([self.wm_words, split["wm_words"]])
        self.wm_counts = np.concatenate([self.wm_counts, split["wm_counts"]])
        self._ws_indptr.extend((split["ws_indptr"][1:] + self._ws_indptr[-1]).tolist())
        self._wm_indptr.extend((split["wm_indptr"][1:] + self._wm_indptr[-1]).tolist())
        self._doc_self_link.extend([False] * (state.n_docs - first_new_doc))
        self.ws_indptr = np.asarray(self._ws_indptr, dtype=np.int64)
        self.wm_indptr = np.asarray(self._wm_indptr, dtype=np.int64)
        self._doc_lengths = sampler._doc_lengths.astype(np.float64).tolist()
        self._doc_user = sampler._doc_user.tolist()
        self._d_indptr = sampler.d_csr_indptr.tolist()
        self._dout_indptr = sampler.dout_csr_indptr.tolist()

    def rebuild_link_layout(self) -> None:
        """Re-derive the link layout after the sampler appended links.

        The CSR order changes wholesale, so the static per-link arrays are
        rebuilt and every CSR-ordered per-iteration cache is invalidated
        (their identity keys would otherwise miss the reorder).
        """
        self._build_link_layout(self.sampler)
        self._eta_source = None
        self._nu_source = None
        self._lambdas_source = None
        self._deltas_source = None

    # ------------------------------------------------------------------ sweep

    def sweep(self, doc_ids: np.ndarray | None = None) -> SweepStats:
        """One Gibbs sweep (Alg. 1 steps 3-6) over ``doc_ids`` (default: all)."""
        return _timed_python_sweep(self, doc_ids)

    def _refresh_caches(self) -> None:
        """Re-derive per-iteration link arrays when their source changes.

        ``eta`` / ``nu`` are replaced by the M-step and ``lambdas`` /
        ``deltas`` by the augmentation draws — all whole-array swaps, so an
        identity check per conditional is enough to keep CSR-ordered copies
        in sync. In-place mutation of a snapshotted source array is not
        supported; each source is frozen (``writeable = False``) so such a
        mutation raises instead of silently serving stale conditionals.
        """
        sampler = self.sampler
        params = sampler.params
        if params.eta is not self._eta_source:
            self._eta_source = params.eta
            params.eta.flags.writeable = False
            # [orientation * Z + z, c, d]: orientation 1 reads eta[c, d, z]
            # (outgoing links), orientation 0 its transpose (incoming)
            pair = np.ascontiguousarray(
                np.stack(
                    [np.transpose(params.eta, (2, 1, 0)), np.transpose(params.eta, (2, 0, 1))]
                )
            )
            n_topics = params.eta.shape[2]
            self._eta_oriented_flat = pair.reshape(2 * n_topics, *pair.shape[2:])
            self._eta_zcd = self._eta_oriented_flat[n_topics:]
        if params.nu is not self._nu_source:
            self._nu_source = params.nu
            params.nu.flags.writeable = False
            projection = (
                sampler.e_features @ params.nu
                if len(sampler.e_features)
                else np.zeros(0)
            )
            self._d_feature = projection[sampler.d_csr_link]
            self._dout_feature = projection[sampler.dout_csr_link]
        if sampler.lambdas is not self._lambdas_source:
            self._lambdas_source = sampler.lambdas
            sampler.lambdas.flags.writeable = False
            self._f_lambdas = sampler.lambdas[sampler.f_csr_link]
        if sampler.deltas is not self._deltas_source:
            self._deltas_source = sampler.deltas
            sampler.deltas.flags.writeable = False
            self._d_deltas = sampler.deltas[sampler.d_csr_link]
            self._dout_deltas = sampler.deltas[sampler.dout_csr_link]

    # ------------------------------------------------------- topic conditional

    def topic_log_weights(self, doc_id: int, community: int) -> np.ndarray:
        """Eq. 13 log-weights over all Z topics, no per-word Python work."""
        # deferred (DESIGN.md §14): the compiled kernel overrides this method
        from scipy.special import gammaln

        self._refresh_caches()
        state = self.state
        beta = self._beta
        topic_word = state.topic_word

        # community-topic term (n^z_c + alpha); denominator is z-independent
        log_weights = np.log(state.community_topic[community] + self._alpha)

        # word likelihood: count==1 fast path is a log-gather ...
        start, end = self._ws_indptr[doc_id], self._ws_indptr[doc_id + 1]
        if end > start:
            log_weights += np.log(topic_word[:, self.ws_words[start:end]] + beta).sum(axis=1)
        # ... repeated words use gammaln(x + m) - gammaln(x)
        start, end = self._wm_indptr[doc_id], self._wm_indptr[doc_id + 1]
        if end > start:
            gathered = topic_word[:, self.wm_words[start:end]] + beta
            counts = self.wm_counts[start:end]
            log_weights += (gammaln(gathered + counts) - gammaln(gathered)).sum(axis=1)
        # denominator: one ascending factorial of length |d| per topic
        length = self._doc_lengths[doc_id]
        if length:
            totals = state.topic_totals + self._words_beta
            log_weights -= gammaln(totals + length) - gammaln(totals)

        # outgoing diffusion links (incoming ones are z-constants)
        if self._profile_mode:
            start, end = self._dout_indptr[doc_id], self._dout_indptr[doc_id + 1]
            if end > start:
                log_weights += self._outgoing_link_factors(doc_id, start, end)
        return log_weights

    def _outgoing_link_factors(self, doc_id: int, start: int, end: int) -> np.ndarray:
        """Summed ``log_psi`` of Eq. 5 scores for all outgoing links, per topic."""
        sampler = self.sampler
        state = self.state
        params = sampler.params

        theta = state.theta_hat_view()  # (C, Z)
        pi = state.pi_hat_view()  # (U, C)
        weighted_u = pi[self._doc_user[doc_id]][:, None] * theta  # (C, Z)
        # folded[d, z] = sum_c weighted_u[c, z] eta[c, d, z]
        folded = np.matmul(weighted_u.T[:, None, :], self._eta_zcd)[:, 0, :].T
        # bilinear[l, z] = pi_v[l] . (theta * folded)[:, z]
        bilinear = pi[self._dout_target_user[start:end]] @ (theta * folded)

        scores = params.comm_weight * bilinear + params.bias
        if self._use_topic_factor:
            scores += params.pop_weight * sampler.popularity.scores_batch(
                self._dout_time[start:end]
            )
        if self._use_individual_factor:
            scores += self._dout_feature[start:end][:, None]
        deltas = self._dout_deltas[start:end]
        # sum_l log_psi(w_l, x_l) = 0.5 (sum_l w_l - x . w^2)
        return 0.5 * (scores.sum(axis=0) - deltas @ (scores * scores))

    # --------------------------------------------------- community conditional

    def community_log_weights(self, doc_id: int, topic: int) -> np.ndarray:
        """Eq. 14 log-weights over all C communities, no per-link Python work."""
        self._refresh_caches()
        sampler = self.sampler
        state = self.state
        user = self._doc_user[doc_id]

        base_num = state.user_community[user] + self._rho  # counts exclude doc
        denominator = state.user_totals[user] + self._denominator_offset

        if self._community_uses_content:
            # one log over the fused product instead of three separate logs
            log_weights = np.log(
                base_num * (state.community_topic[:, topic] + self._alpha)
                / (state.community_totals + self._topics_alpha)
            )
        else:
            log_weights = np.log(base_num)

        f_start, f_end = self._f_indptr[user], self._f_indptr[user + 1]
        d_start, d_end = self._d_indptr[doc_id], self._d_indptr[doc_id + 1]
        if f_end == f_start and d_end == d_start:
            return log_weights
        pi = state.pi_hat_view()

        if self._model_friendship and f_end > f_start:
            pi_neighbors = pi[sampler.f_csr_neighbor[f_start:f_end]]
            dots = ((pi_neighbors @ base_num)[:, None] + pi_neighbors) / denominator
            lambdas = self._f_lambdas[f_start:f_end]
            log_weights += 0.5 * (dots.sum(axis=0) - lambdas @ (dots * dots))

        if d_end > d_start:
            if self._profile_mode:
                log_weights += self._incident_link_factors(
                    doc_id, topic, d_start, d_end, base_num, denominator, pi
                )
            elif self._similarity_mode:
                pi_others = pi[self._d_other_user[d_start:d_end]]
                dots = ((pi_others @ base_num)[:, None] + pi_others) / denominator
                deltas = self._d_deltas[d_start:d_end]
                log_weights += 0.5 * (dots.sum(axis=0) - deltas @ (dots * dots))
        return log_weights

    def _incident_link_factors(
        self,
        doc_id: int,
        topic: int,
        start: int,
        end: int,
        base_num: np.ndarray,
        denominator: float,
        pi: np.ndarray,
    ) -> np.ndarray:
        """Summed ``log_psi`` of Eq. 5 scores over all incident links, per community.

        Links whose other endpoint is mid-resample (unassigned) are
        skipped, matching the reference loop's ``continue``. The scan for
        such links is elided when the state proves none can exist: exactly
        one document (this one) is unassigned and it has no self-link.
        """
        sampler = self.sampler
        state = self.state
        params = sampler.params

        orientation = self._d_orientation[start:end]
        link_topics = np.where(orientation, topic, state.doc_topic[self._d_other[start:end]])
        orientation_offset = self._d_orientation_offset[start:end]
        other_users = self._d_other_user[start:end]
        times = self._d_time[start:end]
        features = self._d_feature[start:end]
        deltas = self._d_deltas[start:end]
        endpoint_may_be_unassigned = (
            state.n_unassigned > 1
            or self._doc_self_link[doc_id]
            or state.doc_topic[doc_id] != -1  # off-contract: another doc is the unassigned one
        )
        if endpoint_may_be_unassigned and link_topics.min() < 0:
            valid = link_topics >= 0
            if not valid.any():
                return 0.0
            orientation_offset, link_topics = orientation_offset[valid], link_topics[valid]
            other_users, times = other_users[valid], times[valid]
            features, deltas = features[valid], deltas[valid]

        theta = state.theta_hat_view()  # (C, Z)
        theta_z = theta[:, link_topics].T  # (L, C)
        other_weighted = pi[other_users] * theta_z
        # fold the fixed endpoint into q so the bilinear term is a_cand @ q;
        # eta enters as eta[:, :, z] for outgoing links, transposed for
        # incoming ones — both orientations pre-stacked in the flat table
        eta_oriented = self._eta_oriented_flat[orientation_offset + link_topics]  # (L, C, C)
        q = theta_z * np.matmul(eta_oriented, other_weighted[:, :, None])[:, :, 0]
        bilinear = ((q @ base_num)[:, None] + q) / denominator

        constant = params.bias
        if self._use_topic_factor:
            constant = constant + params.pop_weight * sampler.popularity.scores_at(
                times, link_topics
            )
        if self._use_individual_factor:
            constant = constant + features
        scores = params.comm_weight * bilinear
        if isinstance(constant, np.ndarray):
            scores += constant[:, None]
        else:
            scores += constant
        return 0.5 * (scores.sum(axis=0) - deltas @ (scores * scores))


class CompiledKernel(VectorizedKernel):
    """C implementation of the fused sweep (DESIGN.md §10).

    Inherits the vectorized kernel's word/link layout and per-iteration
    cache management, but computes the Eq. 13 / Eq. 14 conditionals — and,
    through :meth:`sweep`, the entire per-document resample loop including
    count updates and categorical draws — in the runtime-compiled C library.
    The C code mutates the *same* arrays ``CPDState`` owns through a pointer
    struct rebuilt on every entry, so M-step array swaps and streaming
    appends keep working unchanged.

    RNG contract: the sweep pre-draws one uniform per categorical draw from
    the sampler's ``Generator`` (``rng.random(k)`` consumes the same bit
    stream as ``k`` scalar draws), so matched seeds stay aligned with the
    Python kernels draw for draw.

    The kernel also owns the count-log tables and the per-topic ``lgamma``
    memo the C topic conditional reads (:meth:`_build_count_tables`); they
    return the same bits as the libm calls they replace.
    """

    name = "compiled"
    #: gibbs hands the augmentation draws to the compiled PG sampler
    uses_compiled_pg = True

    _POP_MODES = {"raw": 0, "proportion": 1, "log": 2}

    def __init__(self, sampler: "CPDSampler") -> None:
        # raises CompiledBackendUnavailable before any layout work when the
        # backend cannot load; make_kernel turns that into the fallback
        self._lib = _compiled.load_library()
        super().__init__(sampler)
        n_topics = sampler.config.n_topics
        n_communities = sampler.config.n_communities
        self._scratch = {
            "scratch_z": np.empty(n_topics),
            "scratch_c": np.empty(n_communities),
            "scratch_wu": np.empty(n_communities * n_topics),
            "scratch_folded": np.empty(n_communities * n_topics),
            "scratch_q": np.empty(n_communities),
            "scratch_base": np.empty(n_communities),
            "scratch_cum": np.empty(max(n_topics, n_communities)),
        }
        # lgamma(topic_totals[z] + W beta) memo, keyed by its exact argument
        # (so it never goes stale); NaN keys match nothing
        self._lgamma_cache = np.full(2 * n_topics, np.nan)
        self._build_count_tables()

    # ---------------------------------------------------------------- layout

    def _build_word_layout(self, sampler: "CPDSampler") -> None:
        super()._build_word_layout(sampler)
        self._doc_lengths_f64 = np.ascontiguousarray(sampler._doc_lengths, dtype=np.float64)

    def append_documents(self, first_new_doc: int) -> None:
        super().append_documents(first_new_doc)
        self._doc_lengths_f64 = np.ascontiguousarray(
            self.sampler._doc_lengths, dtype=np.float64
        )
        self._build_count_tables()

    def _build_count_tables(self) -> None:
        """``log(n + beta)`` / ``log(n + alpha)`` tables for the Eq. 13 counts.

        A ``topic_word`` cell never exceeds the corpus token count and a
        ``community_topic`` cell never exceeds ``n_docs``, so the tables
        cover every count the sweep reads; C fills them with the sweep's own
        libm ``log`` and falls back to it for anything outside (DESIGN.md
        §10, "Count-log tables"). Rebuilt when documents are appended.
        """
        n_tokens = int(self._doc_lengths_f64.sum())
        self._log_beta_table = self._log_table(n_tokens + 1, self._beta)
        self._log_alpha_table = self._log_table(self.state.n_docs + 1, self._alpha)

    def _log_table(self, size: int, offset: float) -> np.ndarray:
        table = np.empty(size)
        self._lib.cpd_log_table(
            table.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            ctypes.c_int64(size),
            ctypes.c_double(offset),
        )
        return table

    # ------------------------------------------------------------------- ctx

    def _ctx_values(self) -> dict:
        """Current pointer-struct contents; rebuilt per entry into C.

        ``pi_hat_view`` / ``theta_hat_view`` flush their dirty rows here, so
        the C code always starts from fresh caches and keeps the rows it
        touches fresh itself (same ``(count + prior) / (total + offset)``
        arithmetic, validated by ``check_consistency`` at 1e-12).
        """
        sampler = self.sampler
        state = self.state
        params = sampler.params
        popularity = sampler.popularity
        fixed = sampler.fixed_communities
        values = {
            "n_docs": state.n_docs,
            "n_users": state.n_users,
            "n_words": state.n_words,
            "n_communities": state.n_communities,
            "n_topics": state.n_topics,
            "profile_mode": int(self._profile_mode),
            "similarity_mode": int(self._similarity_mode),
            "model_friendship": int(self._model_friendship),
            "use_topic_factor": int(self._use_topic_factor),
            "use_individual_factor": int(self._use_individual_factor),
            "community_uses_content": int(self._community_uses_content),
            "has_fixed": int(fixed is not None),
            "pop_mode": self._POP_MODES[popularity.mode],
            "alpha": self._alpha,
            "rho": self._rho,
            "beta": self._beta,
            "words_beta": self._words_beta,
            "topics_alpha": self._topics_alpha,
            "comm_denom_offset": self._denominator_offset,
            "pi_denom_offset": state.n_communities * state.rho,
            "theta_denom_offset": state.n_topics * state.alpha,
            "comm_weight": params.comm_weight,
            "pop_weight": params.pop_weight,
            "bias": params.bias,
            "pop_table_weight": popularity.weight,
            "doc_user": sampler._doc_user,
            "doc_time": sampler._doc_time,
            "doc_community": state.doc_community,
            "doc_topic": state.doc_topic,
            "fixed_communities": fixed,
            "user_community": state.user_community,
            "user_totals": state.user_totals,
            "community_topic": state.community_topic,
            "community_totals": state.community_totals,
            "topic_word": state.topic_word,
            "topic_totals": state.topic_totals,
            "pi_cache": state.pi_hat_view(),
            "theta_cache": state.theta_hat_view(),
            "pop_counts": popularity._counts,
            "ws_words": self.ws_words,
            "ws_indptr": self.ws_indptr,
            "wm_words": self.wm_words,
            "wm_indptr": self.wm_indptr,
            "wm_counts": self.wm_counts,
            "doc_lengths": self._doc_lengths_f64,
            "f_indptr": sampler.f_csr_indptr,
            "f_neighbor": sampler.f_csr_neighbor,
            "f_lambdas": self._f_lambdas,
            "d_indptr": sampler.d_csr_indptr,
            "d_other": self._d_other,
            "d_other_user": self._d_other_user,
            "d_time": self._d_time,
            "d_is_source": self._d_orientation,
            "d_deltas": self._d_deltas,
            "d_feature": self._d_feature,
            "dout_indptr": sampler.dout_csr_indptr,
            "dout_target_user": self._dout_target_user,
            "dout_time": self._dout_time,
            "dout_deltas": self._dout_deltas,
            "dout_feature": self._dout_feature,
            "eta_oriented": self._eta_oriented_flat,
            "log_beta_table": self._log_beta_table,
            "log_beta_size": 0 if self._log_beta_table is None else len(self._log_beta_table),
            "log_alpha_table": self._log_alpha_table,
            "log_alpha_size": 0 if self._log_alpha_table is None else len(self._log_alpha_table),
            "lgamma_cache": self._lgamma_cache,
        }
        values.update(self._scratch)
        return values

    # ----------------------------------------------------------- conditionals

    def topic_log_weights(self, doc_id: int, community: int) -> np.ndarray:
        """Eq. 13 log-weights computed by the C conditional builder."""
        self._refresh_caches()
        ctx, keepalive = _compiled.build_ctx(self._ctx_values())
        out = np.empty(self.state.n_topics)
        self._lib.cpd_topic_log_weights(
            ctypes.byref(ctx),
            ctypes.c_int64(int(doc_id)),
            ctypes.c_int64(int(community)),
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        )
        del keepalive
        return out

    def community_log_weights(self, doc_id: int, topic: int) -> np.ndarray:
        """Eq. 14 log-weights computed by the C conditional builder."""
        self._refresh_caches()
        ctx, keepalive = _compiled.build_ctx(self._ctx_values())
        out = np.empty(self.state.n_communities)
        self._lib.cpd_community_log_weights(
            ctypes.byref(ctx),
            ctypes.c_int64(int(doc_id)),
            ctypes.c_int64(int(topic)),
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        )
        del keepalive
        return out

    # ------------------------------------------------------------------ sweep

    def sweep(self, doc_ids: np.ndarray | None = None) -> SweepStats:
        """Fused sweep: the whole partition resampled in one C call."""
        started = time.perf_counter()
        sampler = self.sampler
        state = self.state
        if doc_ids is None:
            ids = np.arange(state.n_docs, dtype=np.int64)
        else:
            ids = np.ascontiguousarray(np.asarray(doc_ids, dtype=np.int64))
        n = len(ids)
        if n == 0:
            return SweepStats(kernel=self.name, n_docs=0, draws=0, seconds=0.0)
        if ids.min() < 0 or ids.max() >= state.n_docs:
            raise ValueError("sweep document ids out of range")
        if np.any(state.doc_topic[ids] < 0):
            raise ValueError("compiled sweep requires currently-assigned documents")
        self._refresh_caches()
        draws_per_doc = 1 if sampler.fixed_communities is not None else 2
        uniforms = sampler.rng.random(draws_per_doc * n)
        ctx, keepalive = _compiled.build_ctx(self._ctx_values())
        consumed = self._lib.cpd_sweep_docs(
            ctypes.byref(ctx),
            ids.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
            ctypes.c_int64(n),
            uniforms.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        )
        del keepalive
        # C moved counts under the popularity score cache without marking
        # rows dirty; drop it wholesale so the next lookup recomputes
        popularity = sampler.popularity
        popularity._score_cache = None
        popularity._dirty_rows.clear()
        if consumed != draws_per_doc * n:
            raise RuntimeError(
                f"compiled sweep consumed {consumed} uniforms, "
                f"expected {draws_per_doc * n}"
            )
        return SweepStats(
            kernel=self.name,
            n_docs=n,
            draws=int(consumed),
            seconds=time.perf_counter() - started,
        )
